#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>

#include "common/rng.h"
#include "compress/quantize_model.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "net/request_parser.h"
#include "nn/serialize.h"
#include "nn/zoo.h"
#include "obs/trace.h"
#include "runtime/inference.h"
#include "runtime/model_registry.h"
#include "runtime/session_cache.h"
#include "selector/capability_db.h"
#include "selector/selecting_algorithm.h"

namespace e2ebench {

using openei::common::Json;
namespace nn = openei::nn;
namespace runtime = openei::runtime;
namespace selector = openei::selector;

namespace {

/// The benchmark's own spans, kept in memory and written out at the end.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns, end_ns;
  };

  int open(const char* name, int parent) {
    spans_.push_back({name, parent, now_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  template <typename F>
  auto timed(const char* name, int parent, F&& f) {
    int id = open(name, parent);
    struct Closer {
      SpanLog& log;
      int id;
      ~Closer() { log.close(id); }
    } closer{*this, id};
    return f();
  }

  /// Durations in microseconds of every span with this name.
  std::vector<double> durations_us(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
    return out;
  }

  /// Writes the first `limit` spans (every span when they are fewer).
  void write(const std::string& path, std::size_t limit) const {
    std::ofstream out(path);
    out << "{\"total_spans\":" << spans_.size() << ",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size() && i < limit; ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}";
    }
    out << "\n]}\n";
  }

 private:
  std::vector<Span> spans_;
};

/// Nanoseconds of [start, end) that the intervals cover.
std::int64_t coverage(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                      std::int64_t start, std::int64_t end) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0, reach = start;
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, end);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return covered;
}

/// Repeats `f` for about `seconds` (at least `min_reps` times) and returns
/// the median duration in microseconds.
template <typename F>
double median_us(double seconds, std::size_t min_reps, F&& f) {
  std::vector<double> samples;
  std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (samples.size() < min_reps || now_ns() < end) {
    std::int64_t t = now_ns();
    f(samples.size());
    samples.push_back(static_cast<double>(now_ns() - t) * 1e-3);
    if (samples.size() >= 200000) break;
  }
  return median(std::move(samples));
}

struct KernelModel {
  std::string label;
  nn::Model model;
  double flops_per_row;
  double bytes_per_row;
};

/// The fixed model set whose kernels every traced run measures.
std::vector<KernelModel> kernel_models(std::uint64_t seed) {
  openei::common::Rng rng(seed ^ 0x5bd1e995ULL);
  std::vector<KernelModel> out;
  auto add = [&](std::string label, nn::Model model, const nn::Model& fp32) {
    ReferenceNet ref(nn::model_to_json(fp32));
    out.push_back({std::move(label), std::move(model), ref.flops_per_row(),
                   ref.bytes_moved_per_row()});
  };
  nn::Model mlp = nn::zoo::make_mlp("mlp", 8, 3, {16}, rng);
  add("mlp", mlp.clone(), mlp);
  nn::zoo::ImageSpec spec{3, 16, 4};
  std::vector<float> calib(64 * 3 * 16 * 16);
  for (float& v : calib) v = rng.uniform_float(-1.0F, 1.0F);
  nn::Tensor calibration(openei::tensor::Shape{64, 3, 16, 16}, calib);
  for (const char* arch : {"mobilenet", "squeezenet"}) {
    nn::Model fp32 = std::string(arch) == "mobilenet"
                         ? nn::zoo::make_mini_mobilenet(spec, rng)
                         : nn::zoo::make_mini_squeezenet(spec, rng);
    nn::Model int8 = openei::compress::quantize_int8(fp32, calibration).model;
    add(std::string(arch) + "_int8", std::move(int8), fp32);
    add(std::string(arch) + "_fp32", fp32.clone(), fp32);
  }
  return out;
}

}  // namespace

RunResult run_traced(const Workload& w, std::uint64_t seed, double seconds,
                     bool coalesce) {
  RunResult res;
  const double unit = seconds / 10.0;
  const auto device = openei::hwsim::edge_server();
  const auto package = openei::hwsim::openei_package();
  Served a(w, {false, coalesce});
  Served b(w, {true, coalesce});
  auto account = [&](const Served::Load& load) {
    res.attempted += load.phase.sent;
    res.failed += load.phase.failed;
  };

  // net: the most the event loop allows, on a request that does no inference.
  a.node().ingest("bench_sensor", 1.0, Json(openei::common::JsonArray{Json(1.0)}));
  PhaseResult floor =
      a.drive_fixed(http_request("GET", "/ei_data/realtime/bench_sensor?timestamp=1"),
                    unit, unit / 4);
  res.attempted += floor.sent;
  res.failed += floor.failed;
  res.add("net.floor_rps", median(floor.window_rps), "req/s");

  // Cache, batcher and totals under the workload's own 4-connection load.
  Status before = a.status();
  double energy0 = a.checks.energy_j;
  Served::Load load = a.drive(4, 2 * unit, 0.0, unit / 2, true);
  account(load);
  Status after = a.status();
  std::uint64_t op_ops = a.op ? a.op->ops : 0, op_polls = a.op ? a.op->polls : 0;
  std::string xc = cross_check(before, after, load.phase.completed, 1 + op_ops + op_polls,
                               op_ops, a.checks.energy_j - energy0);
  res.require(xc.empty(), "cross-check: " + xc);
  double hits = after.hits - before.hits, misses = after.misses - before.misses;
  double flushes = after.flushes - before.flushes;
  res.add("session_cache.hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  res.add("session_cache.evictions_per_1k",
          (after.evictions - before.evictions) * 1000.0 /
              std::max<double>(1.0, static_cast<double>(load.phase.completed)),
          "count");
  res.add("batcher.rows_per_flush",
          flushes > 0 ? static_cast<double>(load.rows) / flushes : 0.0, "rows");

  // Tracing on (node b) against off (node a), alternating.
  std::vector<double> off_rps, on_rps;
  for (int round = 0; round < 3; ++round) {
    Served::Load off = a.drive(4, unit * 2 / 3, 0.0, unit / 6, true);
    Served::Load on = b.drive(4, unit * 2 / 3, 0.0, unit / 6, true);
    account(off);
    account(on);
    off_rps.insert(off_rps.end(), off.phase.window_rps.begin(), off.phase.window_rps.end());
    on_rps.insert(on_rps.end(), on.phase.window_rps.begin(), on.phase.window_rps.end());
  }
  double off_med = median(off_rps), on_med = median(on_rps);
  res.add("obs.tracing_overhead_pct", (off_med - on_med) / off_med * 100.0, "%");

  // The program's own ei.* spans from the traced node.
  std::map<std::string, std::vector<double>> ei;
  auto& tracer = b.node().service().tracer();
  for (std::uint64_t id : tracer.recent_trace_ids()) {
    auto record = tracer.find(id);
    if (!record || record->find_span("ei.infer") == nullptr) continue;
    const auto& root = record->root();
    std::vector<std::pair<std::int64_t, std::int64_t>> children;
    for (const auto* child : record->children_of(root.id)) {
      children.emplace_back(child->start_ns, child->end_ns);
      ei[child->name].push_back(child->duration_us());
    }
    ei["handle"].push_back(root.duration_us());
    ei["unattributed"].push_back(
        static_cast<double>(root.end_ns - root.start_ns -
                            coverage(children, root.start_ns, root.end_ns)) *
        1e-3);
    if (const auto* batch = record->find_span("ei.batch")) {
      if (const auto* wait = batch->find_attribute("queue_wait_us")) {
        ei["queue_wait"].push_back(wait->number);
      }
    }
  }
  res.require(!ei["handle"].empty(), "the traced node kept no /ei_algorithms traces");
  res.add("libei.handle_us", median(ei["handle"]), "us");
  res.add("libei.select_us", median(ei["ei.select"]), "us");
  res.add("libei.parse_us", median(ei["ei.parse"]), "us");
  res.add("libei.infer_us", median(ei["ei.infer"]), "us");
  res.add("libei.serialize_us", median(ei["ei.serialize"]), "us");
  res.add("libei.unattributed_us", median(ei["unattributed"]), "us");
  res.add("batcher.queue_wait_us", median(ei["queue_wait"]), "us");

  // One connection: HTTP p50 against the in-process handle p50 below.
  Served::Load single = a.drive(1, unit, 0.0, unit / 4, false, true);
  account(single);
  double http_p50_us = median(single.latency_ms) * 1e3;

  // Replay through each layer's public functions under the benchmark's spans.
  runtime::ModelRegistry registry;
  for (const Variant& v : w.variants) {
    registry.put({v.scenario, v.algorithm, nn::model_from_json(Json::parse(v.text[0])),
                  v.accuracy});
  }
  runtime::SessionCache::Options cache_options;
  cache_options.budget_bytes = w.budget_bytes;
  runtime::SessionCache cache(registry, package, device, cache_options);
  std::map<std::string, std::shared_ptr<selector::CapabilityDatabase>> dbs;
  auto build_db = [&](const Variant& v) {
    auto db = std::make_shared<selector::CapabilityDatabase>();
    for (const auto& entry : registry.find(v.scenario, v.algorithm)) {
      db->add(selector::estimate_capability(entry->model, entry->accuracy, package, device));
    }
    return db;
  };
  for (const Variant& v : w.variants) dbs[v.scenario + "/" + v.algorithm] = build_db(v);

  SpanLog spans;
  openei::net::RequestParser parser;
  std::vector<openei::net::HttpRequest> parsed;
  std::int64_t replay_end = now_ns() + static_cast<std::int64_t>(2 * unit * 1e9);
  for (std::size_t i = 0; now_ns() < replay_end || i < 64; ++i) {
    const Template& t = w.templates[i % w.templates.size()];
    const Variant& pair = w.variants[static_cast<std::size_t>(t.variant)];
    int root = spans.open("replay", -1);
    parsed.clear();
    spans.timed("net.request_parse", root, [&] {
      parser.feed(t.wire.data(), t.wire.size(), parsed);
      return 0;
    });
    Json input = spans.timed("json.parse", root, [&] { return Json::parse(t.body); });
    selector::SelectionRequest selection;
    selection.device_name = device.name;
    selection.objective = t.objective == 1 ? selector::Objective::kMinMemory
                                           : selector::Objective::kMaxAccuracy;
    selection.requirements.min_accuracy = t.min_accuracy;
    auto chosen = spans.timed("selector.select", root, [&] {
      return selector::select(*dbs[pair.scenario + "/" + pair.algorithm], selection);
    });
    res.require(chosen && chosen->model_name == pair.name,
                "replayed selection differs from Eq. 1 for " + t.target);
    auto lease = spans.timed("session_cache.acquire", root,
                             [&] { return cache.acquire(pair.name, coalesce); });
    const auto& shape = lease.session->model().input_shape();
    nn::Tensor batch = spans.timed("runtime.rows_to_batch", root,
                                   [&] { return runtime::rows_to_batch(input, shape); });
    runtime::InferenceResult result = spans.timed("runtime.infer", root, [&] {
      return coalesce ? lease.batcher->submit(std::move(batch)).get()
                      : lease.session->run(batch);
    });
    spans.timed("json.serialize", root, [&] {
      Json out{openei::common::JsonObject{}};
      out.set("scenario", pair.scenario);
      out.set("algorithm", pair.algorithm);
      out.set("model", pair.name);
      out.set("package", package.name);
      out.set("device", device.name);
      out.set("alem", chosen->alem.to_json());
      openei::common::JsonArray predictions;
      for (std::size_t p : result.predictions) predictions.emplace_back(p);
      out.set("predictions", Json(std::move(predictions)));
      out.set("batch_latency_s", result.batch_latency_s);
      out.set("batch_energy_j", result.batch_energy_j);
      out.set("ledger_energy_j", result.ledger_energy_j);
      return out.dump().size();
    });
    spans.close(root);
    // The whole request in-process, as its own root.
    spans.timed("libei.handle", -1, [&] {
      return a.node().service().handle(parsed.front()).status;
    });
  }
  double handle_us = median(spans.durations_us("libei.handle"));
  res.add("net.request_parse_us", median(spans.durations_us("net.request_parse")), "us");
  res.add("json.parse_us", median(spans.durations_us("json.parse")), "us");
  res.add("selector.select_us", median(spans.durations_us("selector.select")), "us");
  res.add("net.http_overhead_us", http_p50_us - handle_us, "us");
  double stage_sum = 0.0;
  for (const char* stage : {"json.parse", "selector.select", "session_cache.acquire",
                            "runtime.rows_to_batch", "runtime.infer", "json.serialize"}) {
    stage_sum += median(spans.durations_us(stage));
  }
  res.add("libei.attribution_residue_pct", (handle_us - stage_sum) / handle_us * 100.0, "%");
  std::fprintf(stderr, "replay: handle p50 %.2f us, sum of stage medians %.2f us\n",
               handle_us, stage_sum);

  // Selector: rebuild one pair's capability rows (after a version bump).
  const Variant& first = w.variants.front();
  res.add("selector.capability_rebuild_us",
          median_us(unit / 4, 64, [&](std::size_t) { return build_db(first).get(); }), "us");

  // Session cache: warm hit and cold miss.
  res.add("session_cache.hit_us", median_us(unit / 4, 256, [&](std::size_t) {
            return cache.acquire(first.name, coalesce).session.get();
          }), "us");
  std::vector<double> miss;
  std::int64_t miss_end = now_ns() + static_cast<std::int64_t>(unit / 4 * 1e9);
  for (std::size_t i = 0; (i < 64 || now_ns() < miss_end) && i < 20000; ++i) {
    const Variant& v = w.variants[i % w.variants.size()];
    cache.clear();
    std::int64_t t = now_ns();
    cache.acquire(v.name, false);
    miss.push_back(static_cast<double>(now_ns() - t) * 1e-3);
  }
  res.add("session_cache.miss_us", median(miss), "us");

  // Batcher hand-off: a lone row through submit().get() against run_rows.
  const Template* lone = nullptr;
  for (const Template& t : w.templates) {
    if (t.rows.size() == 1) {
      lone = &t;
      break;
    }
  }
  if (lone != nullptr) {
    const Variant& v = w.variants[static_cast<std::size_t>(lone->variant)];
    auto lease = cache.acquire(v.name, true);
    const auto& row = w.rows[static_cast<std::size_t>(lone->rows[0])];
    std::vector<std::size_t> dims{1};
    for (std::size_t d : lease.session->model().input_shape().dims()) dims.push_back(d);
    nn::Tensor one(openei::tensor::Shape(dims), row);
    double direct = median_us(unit / 8, 256, [&](std::size_t) {
      return lease.session->run_rows(row.data(), 1).predictions.size();
    });
    double via_batcher = median_us(unit / 8, 256, [&](std::size_t) {
      return lease.batcher->submit(one).get().predictions.size();
    });
    res.add("batcher.handoff_us", via_batcher - direct, "us");
  }

  // Kernels of the fixed model set.
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> value(-1.0F, 1.0F);
  for (KernelModel& k : kernel_models(seed)) {
    runtime::InferenceSession session(k.model.clone(), package, device);
    std::size_t elements = k.model.input_shape().elements();
    std::vector<float> data(8 * elements);
    for (float& v : data) v = value(rng);
    double us8 = 0.0;
    for (std::size_t rows : {1U, 8U}) {
      double us = median_us(unit / 20, 64, [&](std::size_t) {
        return session.run_rows(data.data(), rows).predictions.size();
      });
      res.add("inference.run_rows_us." + k.label + "." + std::to_string(rows), us, "us");
      us8 = us;
    }
    res.add("nn.flops_per_row." + k.label, k.flops_per_row, "flop");
    res.add("tensor.bytes_moved_per_row." + k.label, k.bytes_per_row, "B");
    res.add("tensor.gflops." + k.label, k.flops_per_row * 8.0 / (us8 * 1e3), "GFLOP/s");
  }

  for (Served* s : {&a, &b}) {
    res.require(s->checks.wrong == 0, "wrong answer: " + s->checks.first_error);
    if (s->op) {
      res.require(s->op->failed == 0, "an operator swap or rollback failed");
      res.require(s->op->budget_violations == 0, "resident_bytes exceeded budget_bytes");
    }
  }
  std::filesystem::create_directories(".bench_out");
  spans.write(".bench_out/spans-" + w.name + "-" + std::to_string(seed) + ".json", 20000);
  return res;
}

}  // namespace e2ebench
