// A served node and the pieces both runs share: the timed set-up, the
// /ei_status snapshot, the lifecycle operator, and the checked load phases.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/edge_node.h"
#include "loadgen.h"
#include "workload.h"

namespace e2ebench {

struct NodeOptions {
  bool tracing = false;
  bool coalesce = true;
};

/// The counters the cross-checks compare, from one GET /ei_status.
struct Status {
  double algorithm_requests = 0, model_requests = 0, requests_served = 0;
  double hits = 0, misses = 0, evictions = 0;
  double resident_bytes = 0, budget_bytes = 0;
  double busy_joules = 0, flushes = 0;
};
Status parse_status(std::string_view body);

/// POST /ei_models swaps and rollbacks on a fixed schedule (one operation
/// every kOperatorPeriodMs, each followed by a GET /ei_status that checks
/// resident_bytes <= budget_bytes).
class Operator {
 public:
  static constexpr int kOperatorPeriodMs = 25;
  Operator(const Workload& w, VersionLog& log, std::uint16_t port);
  SideChannel* channel() { return &side_; }

  std::uint64_t ops = 0, polls = 0, failed = 0, budget_violations = 0;
  std::vector<double> swap_ms;

 private:
  std::optional<std::string> next(std::int64_t now);
  void done(const Response& r, std::int64_t sent, std::int64_t finished);

  const Workload& w_;
  VersionLog& log_;
  Connection conn_;
  SideChannel side_;
  std::int64_t next_due_ = 0;
  bool poll_pending_ = false;
  struct State {
    int prior = -1;  // retained version for rollback, -1 = none
    int ops = 0;
  };
  std::vector<State> state_;
  int op_variant_ = -1;
  bool op_is_swap_ = false;
  std::size_t op_id_ = 0;
};

/// One EdgeNode serving the workload on loopback with its connections.
class Served {
 public:
  /// Constructs the node, deploys every variant over POST /ei_models and
  /// waits for one correct answer from each; `ready_cpu_s` is the process's
  /// CPU time when the last of them arrived.
  Served(const Workload& w, NodeOptions options);
  ~Served();

  openei::core::EdgeNode& node() { return *node_; }
  std::uint16_t port() const { return port_; }
  Status status();
  double ready_cpu_s = 0.0;
  std::int64_t ready_ns = 0;

  struct Load {
    PhaseResult phase;
    std::uint64_t rows = 0;
    std::vector<double> latency_ms;  // every request, sent -> done (if kept)
    double cpu_s = 0.0;              // process CPU time, every thread
  };
  /// Drives the workload's templates (cyclically, from `cursor`) through
  /// `connections` keep-alive connections, checking every answer.
  /// `rate` = 0 runs a closed loop.
  Load drive(std::size_t connections, double seconds, double rate,
             double window_s, bool with_operator, bool keep_latencies = false);
  /// Closed loop of one fixed request (the net floor); counts answers.
  PhaseResult drive_fixed(const std::string& wire, double seconds, double window_s);
  /// Sequential hot-swaps with no other load for about `seconds` (at least
  /// 20); each is followed by a request that must be answered by the new
  /// weights.  Returns the swaps' round trips in ms.
  std::vector<double> swap_series(double seconds);

  const Workload& w;
  VersionLog log;
  CheckStats checks;
  std::unique_ptr<Operator> op;
  std::size_t cursor = 0;
  std::int64_t corrupt_at = -1;             // response index to corrupt

 private:
  void check(const Template& t, const InFlight& request, std::int64_t done,
             const Response& r);
  /// A fresh control connection: the node closes one idle for longer than
  /// its 30 s keep-alive timeout, and a run may outlast that.
  void reconnect_control();

  std::unique_ptr<openei::core::EdgeNode> node_;
  std::uint16_t port_ = 0;
  std::unique_ptr<Connection> control_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<std::vector<int>> by_variant_;  // template ids per chosen variant
  std::int64_t responses_ = 0;
};

/// Compares client-side totals with the node's counters between `before`
/// and `after`; returns an empty string when they agree.
std::string cross_check(const Status& before, const Status& after,
                        std::uint64_t completed, std::uint64_t other_served,
                        std::uint64_t model_ops, double client_energy_j);

double peak_rss_mb();
/// CPU time of the whole process (every thread) since it started.
double process_cpu_s();
/// CPU time of the calling thread.
double thread_cpu_s();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome: the last line the benchmark prints.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // why `correct` is false
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void require(bool ok, const std::string& why) {
    if (!ok) {
      correct = false;
      problems.push_back(why);
    }
  }
};

}  // namespace e2ebench
