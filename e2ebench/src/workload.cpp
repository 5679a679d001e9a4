#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <stdexcept>

#include "common/rng.h"
#include "compress/quantize_model.h"
#include "hwsim/cost_model.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "loadgen.h"
#include "nn/serialize.h"
#include "nn/zoo.h"

namespace e2ebench {

using openei::common::Json;
namespace nn = openei::nn;

namespace {

Json& member(Json& object, std::string_view key) {
  for (auto& [name, value] : object.as_object()) {
    if (name == key) return value;
  }
  throw std::runtime_error("model document lacks '" + std::string(key) + "'");
}

/// The same weights with the classifier's outputs reordered: class c of the
/// original becomes class perm[c].  Predictions then differ on every row, so
/// a response shows which version served it.
Json permute_outputs(Json doc, const std::vector<int>& perm) {
  auto& layers = member(doc, "layers").as_array();
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    const std::string type = it->at("type").as_string();
    if (type != "dense" && type != "conv2d") continue;
    auto& weights = member(member(*it, "weights"), "values").as_array();
    auto& bias = member(member(*it, "bias"), "values").as_array();
    std::size_t outputs = bias.size();
    std::size_t block = weights.size() / outputs;
    std::vector<Json> w(weights.size()), b(outputs);
    for (std::size_t o = 0; o < outputs; ++o) {
      auto to = static_cast<std::size_t>(perm[o]);
      b[to] = bias[o];
      for (std::size_t i = 0; i < block; ++i) {
        if (type == "dense") {  // [in, out]
          w[i * outputs + to] = weights[i * outputs + o];
        } else {  // [out, in, k, k]
          w[to * block + i] = weights[o * block + i];
        }
      }
    }
    weights = std::move(w);
    bias = std::move(b);
    return doc;
  }
  throw std::runtime_error("model has no classifier layer to permute");
}

std::string format_row(const std::vector<float>& row) {
  std::string out = "[";
  char buf[16];
  for (std::size_t i = 0; i < row.size(); ++i) {
    std::snprintf(buf, sizeof(buf), i == 0 ? "%.3f" : ",%.3f",
                  static_cast<double>(row[i]));
    out += buf;
  }
  return out + "]";
}

class Builder {
 public:
  Builder(std::string name, std::uint64_t seed)
      : rng_(seed), model_rng_(seed ^ 0x9e3779b97f4a7c15ULL) {
    w_.name = std::move(name);
  }

  Workload take() { return std::move(w_); }
  openei::common::Rng& model_rng() { return model_rng_; }

  /// Input rows of values k/1000: the JSON text the node parses and the
  /// float the reference uses are the same number.
  void make_rows(std::size_t count, std::size_t elements) {
    std::uniform_int_distribution<int> milli(-1000, 1000);
    for (std::size_t r = 0; r < count; ++r) {
      std::vector<float> row(elements);
      for (float& v : row) v = static_cast<float>(milli(rng_) / 1000.0);
      w_.rows.push_back(std::move(row));
    }
  }

  /// Registers an fp32 variant, its reference, and (when `swappable`) the
  /// permuted second version.  Returns the variant index.
  int add_fp32(nn::Model& model, const std::string& scenario,
               const std::string& algorithm, double accuracy, bool swappable) {
    Json doc = nn::model_to_json(model);
    w_.refs.emplace_back(doc);
    const ReferenceNet& ref = w_.refs.back();
    std::vector<int> perm(ref.classes());
    for (std::size_t c = 0; c < perm.size(); ++c) {
      perm[c] = static_cast<int>((c + 1) % perm.size());
    }
    std::vector<std::uint64_t> ok;
    std::vector<int> top;
    for (const auto& row : w_.rows) {
      std::vector<double> logits = ref.logits(row.data());
      double scale = 1.0;
      for (double v : logits) scale = std::max(scale, std::fabs(v));
      std::uint64_t mask = acceptable_classes(logits, kLogitTolerance * scale);
      std::uint64_t swapped = 0;
      for (std::size_t c = 0; c < perm.size(); ++c) {
        if (mask >> c & 1U) swapped |= std::uint64_t{1} << perm[c];
      }
      ok.push_back(mask);
      ok.push_back(swapped);
      top.push_back(static_cast<int>(argmax(logits)));
    }
    w_.ok.push_back(std::move(ok));
    w_.top.push_back(std::move(top));

    Variant v = describe(model, scenario, algorithm, accuracy);
    v.ref = static_cast<int>(w_.refs.size()) - 1;
    v.text[0] = doc.dump();
    if (swappable) v.text[1] = permute_outputs(std::move(doc), perm).dump();
    w_.variants.push_back(std::move(v));
    return static_cast<int>(w_.variants.size()) - 1;
  }

  /// Registers a calibrated int8 twin of `fp32`, judged by its reference.
  void add_int8(const nn::Model& fp32, int fp32_variant, double accuracy) {
    std::size_t calib_rows = std::min<std::size_t>(64, w_.rows.size());
    std::vector<std::size_t> dims{calib_rows};
    for (std::size_t d : fp32.input_shape().dims()) dims.push_back(d);
    std::vector<float> calib;
    for (std::size_t r = 0; r < calib_rows; ++r) {
      calib.insert(calib.end(), w_.rows[r].begin(), w_.rows[r].end());
    }
    nn::Model q = openei::compress::quantize_int8(
                      fp32, nn::Tensor(openei::tensor::Shape(dims), calib))
                      .model;
    const Variant& base = w_.variants[static_cast<std::size_t>(fp32_variant)];
    std::string name = base.name.substr(0, base.name.rfind('_')) + "_int8";
    q.set_name(name);
    Variant v = describe(q, base.scenario, base.algorithm, accuracy);
    v.int8 = true;
    v.ref = base.ref;
    v.text[0] = nn::model_to_json(q).dump();
    w_.variants.push_back(std::move(v));
  }

  /// Appends `count` templates; `pick` fills variant, query and rows.
  template <typename Pick>
  void make_templates(std::size_t count, Pick pick) {
    for (std::size_t i = 0; i < count; ++i) {
      Template t;
      pick(t, rng_);
      const Variant& v = w_.variants[static_cast<std::size_t>(t.variant)];
      t.target = "/ei_algorithms/" + v.scenario + "/" + v.algorithm;
      std::string query;
      if (t.objective == 1) query = "objective=memory";
      if (t.min_accuracy > 0.0) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%smin_accuracy=%.3f",
                      query.empty() ? "" : "&", t.min_accuracy);
        query += buf;
      }
      if (!query.empty()) t.target += "?" + query;
      t.body = "[";
      for (std::size_t r = 0; r < t.rows.size(); ++r) {
        if (r > 0) t.body += ",";
        t.body += format_row(w_.rows[static_cast<std::size_t>(t.rows[r])]);
      }
      t.body += "]";
      t.wire = http_request("POST", t.target, t.body);
      // The variant the request must be served by, by Eq. 1.
      t.variant = eq1_choice(w_, v.scenario, v.algorithm, t.objective,
                             t.min_accuracy);
      w_.templates.push_back(std::move(t));
    }
  }

  Workload& w() { return w_; }

 private:
  static Variant describe(const nn::Model& model, const std::string& scenario,
                          const std::string& algorithm, double accuracy) {
    Variant v;
    v.name = model.name();
    v.scenario = scenario;
    v.algorithm = algorithm;
    v.accuracy = accuracy;
    v.storage_bytes = model.storage_bytes();
    v.session_bytes = openei::hwsim::estimate_inference(
                          model, openei::hwsim::openei_package(),
                          openei::hwsim::edge_server())
                          .memory_bytes;
    return v;
  }

  Workload w_;
  std::mt19937_64 rng_;
  openei::common::Rng model_rng_;
};

int random_row(std::mt19937_64& rng, std::size_t rows) {
  return static_cast<int>(
      std::uniform_int_distribution<std::size_t>(0, rows - 1)(rng));
}

}  // namespace

int eq1_choice(const Workload& w, const std::string& scenario,
               const std::string& algorithm, int objective, double min_accuracy) {
  int best = -1;
  bool tie = false;
  for (std::size_t i = 0; i < w.variants.size(); ++i) {
    const Variant& v = w.variants[i];
    if (v.scenario != scenario || v.algorithm != algorithm) continue;
    // Eq. 1: the objective's own attribute is not a constraint.
    if (objective != 0 && v.accuracy < min_accuracy) continue;
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    const Variant& b = w.variants[static_cast<std::size_t>(best)];
    // Within one architecture, M (storage + activations + runtime) differs
    // only by storage bytes.
    double mine = objective == 0 ? -v.accuracy : static_cast<double>(v.storage_bytes);
    double theirs = objective == 0 ? -b.accuracy : static_cast<double>(b.storage_bytes);
    if (mine < theirs) {
      best = static_cast<int>(i);
      tie = false;
    } else if (mine == theirs) {
      tie = true;
    }
  }
  if (best < 0 || tie) {
    throw std::runtime_error("workload has no unique Eq. 1 choice for " +
                             scenario + "/" + algorithm);
  }
  return best;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Builder b(name, seed);
  Workload& w = b.w();
  if (name == "tiny_mlp") {
    b.make_rows(1024, 8);
    nn::Model mlp = nn::zoo::make_mlp("tiny_mlp", 8, 3, {16}, b.model_rng());
    b.add_fp32(mlp, "sensing", "tiny", 0.90, true);
    b.make_templates(1024, [&](Template& t, std::mt19937_64& rng) {
      t.variant = 0;
      t.rows = {random_row(rng, w.rows.size())};
    });
    w.open_rate = 12000.0;
  } else if (name == "conv_zoo") {
    b.make_rows(256, 3 * 16 * 16);
    nn::zoo::ImageSpec spec{3, 16, 4};
    nn::Model mobilenet = nn::zoo::make_mini_mobilenet(spec, b.model_rng());
    mobilenet.set_name("mobilenet_fp32");
    nn::Model squeezenet = nn::zoo::make_mini_squeezenet(spec, b.model_rng());
    squeezenet.set_name("squeezenet_fp32");
    int m = b.add_fp32(mobilenet, "vision", "mobilenet", 0.91, true);
    b.add_int8(mobilenet, m, 0.89);
    int s = b.add_fp32(squeezenet, "vision", "squeezenet", 0.88, true);
    b.add_int8(squeezenet, s, 0.86);
    b.make_templates(512, [&](Template& t, std::mt19937_64& rng) {
      std::uniform_real_distribution<double> u(0.0, 1.0);
      t.variant = u(rng) < 0.5 ? m : s;
      double kind = u(rng);
      if (kind < 0.4) {
        t.objective = 1;  // min memory: the int8 twin
      } else if (kind < 0.7) {
        t.objective = 1;  // min memory above the int8 accuracy: fp32
        t.min_accuracy = t.variant == m ? 0.90 : 0.87;
      }  // else: the default, max accuracy
      std::size_t n = std::uniform_int_distribution<std::size_t>(1, 8)(rng);
      for (std::size_t r = 0; r < n; ++r) t.rows.push_back(random_row(rng, w.rows.size()));
    });
    w.open_rate = 280.0;
  } else if (name == "lifecycle_churn") {
    b.make_rows(1024, 16);
    const std::size_t hidden[12] = {8, 12, 16, 20, 24, 32, 40, 48, 56, 64, 80, 96};
    std::size_t total_bytes = 0, largest = 0;
    for (std::size_t k = 0; k < 12; ++k) {
      char name_buf[32];
      std::snprintf(name_buf, sizeof(name_buf), "churn_%02zu", k);
      nn::Model mlp = nn::zoo::make_mlp(name_buf, 16, 4, {hidden[k]}, b.model_rng());
      b.add_fp32(mlp, "churn", std::string("algo_") + name_buf, 0.80, true);
      total_bytes += w.variants.back().session_bytes;
      largest = std::max(largest, w.variants.back().session_bytes);
    }
    // Holds about a third of the models; each still fits alone.
    w.budget_bytes = std::max(total_bytes / 3, largest);
    // A fixed popularity order that mixes small and large models.  It does
    // not depend on the seed, so every seed loads the cache alike.
    std::vector<int> rank_to_model(12);
    for (int r = 0; r < 12; ++r) rank_to_model[static_cast<std::size_t>(r)] = 5 * r % 12;
    std::vector<double> zipf;
    for (int r = 0; r < 12; ++r) zipf.push_back(1.0 / std::pow(r + 1.0, 1.1));
    std::discrete_distribution<int> by_rank(zipf.begin(), zipf.end());
    b.make_templates(4096, [&](Template& t, std::mt19937_64& rng) {
      t.variant = rank_to_model[static_cast<std::size_t>(by_rank(rng))];
      t.rows = {random_row(rng, w.rows.size())};
    });
    w.churn = true;
    w.open_rate = 4000.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return b.take();
}

namespace {

bool fail(CheckStats& stats, const std::string& why) {
  ++stats.wrong;
  if (stats.first_error.empty()) stats.first_error = why;
  return false;
}

}  // namespace

bool check_response(const Workload& w, const Template& t, unsigned versions,
                    std::string_view body, CheckStats& stats) {
  if (stats.served.size() != w.variants.size()) stats.served.assign(w.variants.size(), 0);
  const Variant& want = w.variants[static_cast<std::size_t>(t.variant)];

  constexpr std::string_view kEnergy = "\"ledger_energy_j\":";
  std::size_t at = body.find(kEnergy);
  if (at == std::string_view::npos) return fail(stats, "response has no ledger_energy_j");
  stats.energy_j += std::strtod(body.data() + at + kEnergy.size(), nullptr);

  constexpr std::string_view kModel = "\"model\":\"";
  at = body.find(kModel);
  if (at == std::string_view::npos) return fail(stats, "response has no model");
  std::size_t name_end = body.find('"', at + kModel.size());
  std::string_view model = body.substr(at + kModel.size(), name_end - at - kModel.size());
  if (model != want.name) {
    return fail(stats, "served by " + std::string(model) + ", Eq. 1 picks " + want.name +
                           " for " + t.target);
  }
  ++stats.served[static_cast<std::size_t>(t.variant)];

  constexpr std::string_view kPred = "\"predictions\":[";
  at = body.find(kPred);
  if (at == std::string_view::npos) return fail(stats, "response has no predictions");
  const char* p = body.data() + at + kPred.size();
  const std::vector<std::uint64_t>& ok = w.ok[static_cast<std::size_t>(want.ref)];
  const std::vector<int>& top = w.top[static_cast<std::size_t>(want.ref)];
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    char* next = nullptr;
    unsigned long cls = std::strtoul(p, &next, 10);
    if (next == p) return fail(stats, "fewer predictions than rows");
    p = next + 1;  // ',' or ']'
    auto row = static_cast<std::size_t>(t.rows[r]);
    if (want.int8) {
      ++stats.int8_rows;
      if (static_cast<int>(cls) == top[row]) ++stats.int8_agree;
      continue;
    }
    std::uint64_t allowed = ((versions & 1U) ? ok[2 * row] : 0) |
                            ((versions & 2U) ? ok[2 * row + 1] : 0);
    if (cls >= 64 || !(allowed >> cls & 1U)) {
      return fail(stats, "prediction " + std::to_string(cls) + " of " + want.name +
                             " row " + std::to_string(row) +
                             " is not the reference's (versions mask " +
                             std::to_string(versions) + ")");
    }
  }
  if (p[-1] != ']') return fail(stats, "more predictions than rows");

  return true;
}

std::size_t VersionLog::begin(int variant, std::int64_t sent, int after) {
  auto& ops = ops_[static_cast<std::size_t>(variant)];
  ops.push_back({sent, INT64_MAX, after});
  return ops.size() - 1;
}

void VersionLog::ack(int variant, std::size_t op, std::int64_t acked) {
  ops_[static_cast<std::size_t>(variant)][op].acked = acked;
}

int VersionLog::current(int variant) const {
  int version = 0;
  for (const Op& op : ops_[static_cast<std::size_t>(variant)]) {
    if (op.acked != INT64_MAX) version = op.after;
  }
  return version;
}

unsigned VersionLog::allowed(int variant, std::int64_t sent, std::int64_t done) const {
  int before = 0;
  unsigned mask = 0;
  for (const Op& op : ops_[static_cast<std::size_t>(variant)]) {
    if (op.acked <= sent) {
      before = op.after;
    } else if (op.sent < done) {
      mask |= 1U << op.after;
    }
  }
  return mask | 1U << before;
}

}  // namespace e2ebench
