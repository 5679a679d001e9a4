// The benchmark's workloads: models, seeded request pools, the reference
// answers every response is judged against, and the Eq. 1 choice each
// request must be served by.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "oracle.h"

namespace e2ebench {

/// One deployed model.
struct Variant {
  std::string name, scenario, algorithm;
  double accuracy = 0.0;
  bool int8 = false;
  int ref = 0;  // reference net judging it (fp32 weights, version 0)
  /// POST /ei_models bodies: [0] as first deployed, [1] the same weights
  /// with the classifier's outputs permuted (empty when never swapped).
  std::string text[2];
  std::size_t storage_bytes = 0;
  std::size_t session_bytes = 0;  // resident-session estimate (lifecycle)
};

struct Template {
  std::string wire;  // the whole HTTP request
  std::string target;
  std::string body;
  int variant = 0;   // the variant Eq. 1 must pick
  int objective = 0;  // 0 accuracy (default), 1 memory
  double min_accuracy = 0.0;
  std::vector<int> rows;  // indices into Workload::rows
};

struct Workload {
  std::string name;
  std::vector<Variant> variants;
  std::vector<ReferenceNet> refs;
  std::vector<std::vector<float>> rows;        // input row pool
  std::vector<std::vector<std::uint64_t>> ok;  // [ref][row] acceptable classes, version 0
  std::vector<std::vector<int>> top;           // [ref][row] reference argmax, version 0
  std::vector<Template> templates;             // sent cyclically in this order
  double open_rate = 0.0;                      // open-loop offered req/s
  std::size_t budget_bytes = 0;                // lifecycle.budget_bytes (0 = default)
  bool churn = false;                          // operator hot-swaps during load
};

/// Reference logit tolerance: a served class is correct when its reference
/// logit is within kLogitTolerance * max(1, |largest logit|) of the largest.
inline constexpr double kLogitTolerance = 1e-4;
/// Int8 variants must agree with the fp32 reference argmax on this share.
inline constexpr double kInt8MinAgreement = 0.80;

Workload make_workload(const std::string& name, std::uint64_t seed);

/// The variant Eq. 1 picks among the variants of `scenario/algorithm` for an
/// objective (0 = max accuracy, 1 = min memory) and an accuracy floor.
int eq1_choice(const Workload& w, const std::string& scenario,
               const std::string& algorithm, int objective, double min_accuracy);

struct CheckStats {
  std::uint64_t wrong = 0;
  std::uint64_t int8_rows = 0;
  std::uint64_t int8_agree = 0;
  double energy_j = 0.0;  // sum of ledger_energy_j
  std::vector<std::uint64_t> served;  // per variant
  std::string first_error;
};

/// Checks one 200 answer to `t`.  `versions` holds the acceptable weight
/// versions of the chosen variant (bit 0 = version 0, bit 1 = version 1).
bool check_response(const Workload& w, const Template& t, unsigned versions,
                    std::string_view body, CheckStats& stats);

/// Weight versions of each variant as hot-swaps and rollbacks are
/// acknowledged; says which versions may answer a request.
class VersionLog {
 public:
  explicit VersionLog(std::size_t variants) : ops_(variants) {}
  /// An operation written at `sent` that leaves `variant` at `after`.
  std::size_t begin(int variant, std::int64_t sent, int after);
  void ack(int variant, std::size_t op, std::int64_t acked);
  int current(int variant) const;
  /// Versions that may answer a request written at `sent` and answered at
  /// `done`: the one acknowledged before `sent`, and any installed later.
  unsigned allowed(int variant, std::int64_t sent, std::int64_t done) const;

 private:
  struct Op {
    std::int64_t sent = 0;
    std::int64_t acked = INT64_MAX;
    int after = 0;
  };
  std::vector<std::vector<Op>> ops_;
};

}  // namespace e2ebench
