// End-to-end /ei_algorithms benchmark: one process starts an EdgeNode, drives
// it over loopback HTTP keep-alive from a single load-generator thread, and
// checks every answer against a double-precision reference.
//
//   e2ebench --workload tiny_mlp|conv_zoo|lifecycle_churn --seed N
//            --seconds S --trace 0|1 [--coalesce 0|1] [--self-test corrupt|drop]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.  The
// last line of standard output is the run's JSON result; a summary goes to
// standard error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "common/logging.h"
#include "harness.h"
#include "layers.h"
#include "tensor/pack.h"
#include "tensor/quantize.h"
#include "workload.h"

namespace e2ebench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool coalesce = true;
  std::string self_test;
};

// Taken during static initialisation, before main().
const std::int64_t kProcessStartNs = now_ns();

void merge(PhaseResult& into, const PhaseResult& from) {
  into.sent += from.sent;
  into.completed += from.completed;
  into.failed += from.failed;
  into.elapsed_s += from.elapsed_s;
  into.window_rps.insert(into.window_rps.end(), from.window_rps.begin(), from.window_rps.end());
  into.window_latency_ms.insert(into.window_latency_ms.end(), from.window_latency_ms.begin(),
                                from.window_latency_ms.end());
  into.lateness_ms.insert(into.lateness_ms.end(), from.lateness_ms.begin(),
                          from.lateness_ms.end());
}

RunResult run_e2e(const Workload& w, const Args& args, double workload_cpu_s) {
  RunResult res;
  Served s(w, {false, args.coalesce});
  if (args.self_test == "corrupt") s.corrupt_at = 1000;

  Status before = s.status();
  double energy0 = s.checks.energy_j;
  // kSlices slices, each a closed loop on 4 connections (throughput) and
  // then an open loop at the workload's fixed rate (latency), both reported
  // on standard error, so that a few seconds of host noise touch a few
  // windows of each.  The open loop's process CPU time per request is
  // cpu_us_per_request: on a VM with steal time, wall-clock throughput and
  // latency spread far past any usable bound between runs, CPU time much
  // less.  Each open window holds at least 1000 requests, so its p99 has 10
  // beyond it.
  constexpr int kSlices = 4;
  const double slice = args.seconds / kSlices;
  const double window = std::max(0.5, 1000.0 / w.open_rate);
  PhaseResult closed, open;
  double open_cpu_s = 0.0;
  for (int k = 0; k < kSlices; ++k) {
    Served::Load c = s.drive(4, 0.25 * slice, 0.0, 0.25, true);
    Served::Load o = s.drive(4, 0.75 * slice, w.open_rate, window, true);
    merge(closed, c.phase);
    merge(open, o.phase);
    open_cpu_s += o.cpu_s;
  }
  Status after = s.status();

  std::uint64_t completed = closed.completed + open.completed;
  if (args.self_test == "drop") --completed;  // one answer lost on the way
  std::uint64_t ops = s.op ? s.op->ops : 0, polls = s.op ? s.op->polls : 0;
  std::string xc = cross_check(before, after, completed, 1 + ops + polls, ops,
                               s.checks.energy_j - energy0);
  res.require(xc.empty(), "cross-check: " + xc);

  std::vector<double> deploy = s.op ? s.op->swap_ms : s.swap_series(1.0);
  std::vector<double> p50s, p99s;
  for (const auto& lat : open.window_latency_ms) {
    if (lat.empty()) continue;
    p50s.push_back(quantile(lat, 0.50));
    p99s.push_back(quantile(lat, 0.99));
  }
  res.attempted = closed.sent + open.sent + ops;
  res.failed = closed.failed + open.failed + (s.op ? s.op->failed : 0);
  res.add("cpu_us_per_request",
          open_cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, open.completed)),
          "us");
  res.add("setup_s", s.ready_cpu_s - workload_cpu_s, "s");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");

  res.require(s.checks.wrong == 0, "wrong answer: " + s.checks.first_error);
  if (s.checks.int8_rows > 0) {
    double agree = static_cast<double>(s.checks.int8_agree) /
                   static_cast<double>(s.checks.int8_rows);
    std::fprintf(stderr, "int8 agreement with the fp32 reference: %.4f over %llu rows\n",
                 agree, static_cast<unsigned long long>(s.checks.int8_rows));
    res.require(agree >= kInt8MinAgreement, "int8 agreement below the floor");
  }
  for (std::size_t v = 0; v < w.variants.size(); ++v) {
    res.require(s.checks.served[v] > 0, w.variants[v].name + " never served");
  }
  if (s.op) {
    res.require(s.op->budget_violations == 0, "resident_bytes exceeded budget_bytes");
    std::fprintf(stderr, "operator: %llu swaps/rollbacks, %llu status polls\n",
                 static_cast<unsigned long long>(ops),
                 static_cast<unsigned long long>(polls));
  }
  std::fprintf(stderr,
               "closed loop: %llu requests in %.2f s, median window %.0f req/s\n"
               "open loop: %llu requests at %.0f req/s offered, %.2f s, window p50 %.4f "
               "p99 %.4f ms, generator late p99 %.3f ms max %.3f ms\n"
               "hot-swaps: %zu, round trip p10 %.4f p50 %.4f ms\n"
               "set-up: %.4f s wall from the process's start, %.4f s CPU less the inputs' "
               "%.4f s\n",
               static_cast<unsigned long long>(closed.completed), closed.elapsed_s,
               median(closed.window_rps), static_cast<unsigned long long>(open.completed),
               w.open_rate, open.elapsed_s,
               median(p50s), median(p99s), quantile(open.lateness_ms, 0.99),
               quantile(open.lateness_ms, 1.0), deploy.size(), quantile(deploy, 0.10),
               quantile(deploy, 0.50), static_cast<double>(s.ready_ns - kProcessStartNs) * 1e-9,
               s.ready_cpu_s - workload_cpu_s, workload_cpu_s);
  return res;
}

void print_result(const RunResult& res) {
  for (const std::string& p : res.problems) std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  std::string out = std::string("{\"correct\": ") + (res.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(res.attempted) +
                    ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", res.metrics[i].value);
    out += (i ? ", \"" : "\"") + res.metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + res.metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload tiny_mlp|conv_zoo|lifecycle_churn --seed N "
               "--seconds S --trace 0|1 [--coalesce 0|1] [--self-test corrupt|drop]\n");
  return 2;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value.c_str());
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--coalesce") args.coalesce = value != "0";
    else if (key == "--self-test") args.self_test = value;
    else return usage();
  }
  if (args.workload.empty() || args.seconds <= 0.0) return usage();
  openei::common::set_log_level(openei::common::LogLevel::kError);
  try {
    std::int64_t start = now_ns();
    double cpu0 = thread_cpu_s();
    Workload w = make_workload(args.workload, args.seed);
    double workload_cpu_s = thread_cpu_s() - cpu0;
    std::fprintf(stderr, "inputs and reference answers built in %.2f s\n",
                 static_cast<double>(now_ns() - start) * 1e-9);
    std::fprintf(stderr, "host: fp32 %s, int8 %s; workload %s, seed %llu, %zu templates\n",
                 openei::tensor::fp32_isa_name(), openei::tensor::int8_isa_name(),
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 w.templates.size());
    RunResult res = args.trace ? run_traced(w, args.seed, args.seconds, args.coalesce)
                               : run_e2e(w, args, workload_cpu_s);
    print_result(res);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
