#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "hwsim/device.h"
#include "hwsim/package.h"

namespace e2ebench {

using openei::common::Json;

namespace {

std::string deploy_target(const Variant& v) {
  char accuracy[32];
  std::snprintf(accuracy, sizeof(accuracy), "%.3f", v.accuracy);
  return "/ei_models?scenario=" + v.scenario + "&algorithm=" + v.algorithm +
         "&accuracy=" + accuracy;
}

double field(const Json& doc, std::string_view block, std::string_view key) {
  const Json* b = doc.find(block);
  const Json* v = b != nullptr ? b->find(key) : nullptr;
  return v != nullptr ? v->as_number() : 0.0;
}

}  // namespace

Status parse_status(std::string_view body) {
  Json doc = Json::parse(body);
  Status s;
  s.algorithm_requests = field(doc, "requests", "algorithm_requests");
  s.model_requests = field(doc, "requests", "model_requests");
  s.requests_served = field(doc, "serving", "requests_served");
  s.hits = field(doc, "lifecycle", "hits");
  s.misses = field(doc, "lifecycle", "misses");
  s.evictions = field(doc, "lifecycle", "evictions");
  s.resident_bytes = field(doc, "lifecycle", "resident_bytes");
  s.budget_bytes = field(doc, "lifecycle", "budget_bytes");
  s.busy_joules = field(doc, "energy", "busy_joules");
  s.flushes = field(doc, "batching", "flushes");
  return s;
}

Operator::Operator(const Workload& w, VersionLog& log, std::uint16_t port)
    : w_(w), log_(log), conn_(port), state_(w.variants.size()) {
  side_.conn = &conn_;
  side_.next = [this](std::int64_t now) { return next(now); };
  side_.done = [this](const Response& r, std::int64_t sent, std::int64_t finished) {
    done(r, sent, finished);
  };
}

std::optional<std::string> Operator::next(std::int64_t now) {
  if (poll_pending_) {
    op_variant_ = -1;
    ++polls;
    return http_request("GET", "/ei_status");
  }
  if (next_due_ == 0) next_due_ = now;
  if (now < next_due_) return std::nullopt;
  next_due_ += kOperatorPeriodMs * 1'000'000LL;

  // Every model in turn; every third operation on a model is a rollback.
  op_variant_ = static_cast<int>(ops % w_.variants.size());
  const Variant& v = w_.variants[static_cast<std::size_t>(op_variant_)];
  State& s = state_[static_cast<std::size_t>(op_variant_)];
  ++ops;
  op_is_swap_ = !(s.prior >= 0 && s.ops % 3 == 2);
  if (!op_is_swap_) {
    op_id_ = log_.begin(op_variant_, now, s.prior);
    return http_request("DELETE", "/ei_models/" + v.name + "?rollback=1");
  }
  int target = 1 - log_.current(op_variant_);
  op_id_ = log_.begin(op_variant_, now, target);
  return http_request("POST", deploy_target(v), v.text[target]);
}

void Operator::done(const Response& r, std::int64_t sent, std::int64_t finished) {
  if (op_variant_ < 0) {
    poll_pending_ = false;
    Status s = parse_status(r.body);
    if (r.status != 200 || s.resident_bytes > s.budget_bytes) ++budget_violations;
    return;
  }
  State& s = state_[static_cast<std::size_t>(op_variant_)];
  int before = log_.current(op_variant_);
  log_.ack(op_variant_, op_id_, finished);
  if (r.status != (op_is_swap_ ? 201 : 200)) ++failed;
  s.prior = op_is_swap_ ? before : -1;
  ++s.ops;
  if (op_is_swap_) swap_ms.push_back(static_cast<double>(finished - sent) * 1e-6);
  poll_pending_ = true;
}

Served::Served(const Workload& workload, NodeOptions options)
    : w(workload), log(workload.variants.size()), by_variant_(workload.variants.size()) {
  for (std::size_t i = 0; i < w.templates.size(); ++i) {
    by_variant_[static_cast<std::size_t>(w.templates[i].variant)].push_back(
        static_cast<int>(i));
  }

  openei::core::EdgeNodeConfig config{openei::hwsim::edge_server(),
                                      openei::hwsim::openei_package()};
  config.service.coalesce_inference = options.coalesce;
  config.service.tracing.enabled = options.tracing;
  config.service.tracing.ring_capacity = 4096;
  config.service.lifecycle.budget_bytes = w.budget_bytes;
  node_ = std::make_unique<openei::core::EdgeNode>(config);
  port_ = node_->start_server(0);
  reconnect_control();
  for (const Variant& v : w.variants) {
    Response r = control_->roundtrip(http_request("POST", deploy_target(v), v.text[0]));
    if (r.status != 201) {
      throw std::runtime_error("deploying " + v.name + " answered " +
                               std::to_string(r.status) + ": " + std::string(r.body));
    }
  }
  for (std::size_t v = 0; v < w.variants.size(); ++v) {
    if (by_variant_[v].empty()) {
      throw std::runtime_error("no request selects " + w.variants[v].name);
    }
    int id = by_variant_[v].front();
    std::int64_t sent = now_ns();
    Response r = control_->roundtrip(w.templates[static_cast<std::size_t>(id)].wire);
    std::uint64_t wrong = checks.wrong;
    if (r.status == 200) check(w.templates[static_cast<std::size_t>(id)], {id, sent, sent}, now_ns(), r);
    if (r.status != 200 || checks.wrong != wrong) {
      throw std::runtime_error("first answer of " + w.variants[v].name + " is wrong: " +
                               checks.first_error + std::string(r.body.substr(0, 200)));
    }
  }
  ready_cpu_s = process_cpu_s();
  ready_ns = now_ns();

  for (int c = 0; c < 4; ++c) conns_.push_back(std::make_unique<Connection>(port_));
  if (w.churn) op = std::make_unique<Operator>(w, log, port_);
}

Served::~Served() {
  op.reset();
  conns_.clear();
  control_.reset();
  node_.reset();
}

void Served::reconnect_control() {
  control_ = std::make_unique<Connection>(port_);
}

Status Served::status() {
  reconnect_control();
  Response r = control_->roundtrip(http_request("GET", "/ei_status"));
  if (r.status != 200) throw std::runtime_error("GET /ei_status failed");
  return parse_status(r.body);
}

void Served::check(const Template& t, const InFlight& request, std::int64_t done,
                   const Response& r) {
  unsigned versions = log.allowed(t.variant, request.sent_ns, done);
  if (++responses_ != corrupt_at) {
    check_response(w, t, versions, r.body, checks);
    return;
  }
  // Self-test: flip the first served class; the oracle must notice.
  std::string body(r.body);
  std::size_t at = body.find("\"predictions\":[");
  if (at != std::string::npos) {
    char& digit = body[at + 15];
    digit = static_cast<char>('0' + (digit - '0' + 1) %
                                        static_cast<int>(w.refs[0].classes()));
  }
  check_response(w, t, versions, body, checks);
}

Served::Load Served::drive(std::size_t connections, double seconds, double rate,
                           double window_s, bool with_operator, bool keep_latencies) {
  std::vector<Connection*> cs;
  for (std::size_t c = 0; c < connections && c < conns_.size(); ++c) {
    cs.push_back(conns_[c].get());
  }
  Load load;
  PhasePlan plan;
  plan.seconds = seconds;
  plan.rate = rate;
  plan.window_s = window_s;
  plan.next = [&] {
    auto id = static_cast<int>(cursor++ % w.templates.size());
    load.rows += w.templates[static_cast<std::size_t>(id)].rows.size();
    return id;
  };
  plan.wire = [&](int id) -> const std::string& {
    return w.templates[static_cast<std::size_t>(id)].wire;
  };
  plan.on_response = [&](const InFlight& f, std::int64_t done, const Response& r) {
    if (keep_latencies) load.latency_ms.push_back(static_cast<double>(done - f.sent_ns) * 1e-6);
    if (r.status == 200) check(w.templates[static_cast<std::size_t>(f.tmpl)], f, done, r);
  };
  double cpu0 = process_cpu_s();
  try {
    load.phase = run_phase(cs, plan, with_operator && op ? op->channel() : nullptr);
    load.cpu_s = process_cpu_s() - cpu0;
  } catch (const std::exception& e) {
    openei::net::ServerStats stats = node_->server_stats();
    throw std::runtime_error(std::string(e.what()) + " (server: idle_closed " +
                             std::to_string(stats.idle_closed) + ", deadline_closed " +
                             std::to_string(stats.deadline_closed) + ", parse_errors " +
                             std::to_string(stats.parse_errors) + ")");
  }
  return load;
}

PhaseResult Served::drive_fixed(const std::string& wire, double seconds,
                                double window_s) {
  std::vector<Connection*> cs;
  for (auto& c : conns_) cs.push_back(c.get());
  PhasePlan plan;
  plan.seconds = seconds;
  plan.window_s = window_s;
  plan.next = [] { return 0; };
  plan.wire = [&](int) -> const std::string& { return wire; };
  plan.on_response = [](const InFlight&, std::int64_t, const Response&) {};
  return run_phase(cs, plan);
}

std::vector<double> Served::swap_series(double seconds) {
  std::vector<int> swappable;
  for (std::size_t v = 0; v < w.variants.size(); ++v) {
    if (!w.variants[v].text[1].empty()) swappable.push_back(static_cast<int>(v));
  }
  reconnect_control();
  std::vector<double> times;
  std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0; i < 20 || (now_ns() < end && i < 2000); ++i) {
    int v = swappable[i % swappable.size()];
    const Variant& variant = w.variants[static_cast<std::size_t>(v)];
    int target = 1 - log.current(v);
    std::int64_t sent = now_ns();
    std::size_t op_id = log.begin(v, sent, target);
    Response r = control_->roundtrip(
        http_request("POST", deploy_target(variant), variant.text[target]));
    std::int64_t acked = now_ns();
    log.ack(v, op_id, acked);
    if (r.status != 201) throw std::runtime_error("hot-swap of " + variant.name + " failed");
    times.push_back(static_cast<double>(acked - sent) * 1e-6);
    // Requests sent after the 201 must see the new weights.
    const auto& ids = by_variant_[static_cast<std::size_t>(v)];
    {
      int id = ids[i % ids.size()];
      std::int64_t t = now_ns();
      Response answer = control_->roundtrip(w.templates[static_cast<std::size_t>(id)].wire);
      if (answer.status != 200) throw std::runtime_error("request after a swap failed");
      check(w.templates[static_cast<std::size_t>(id)], {id, t, t}, now_ns(), answer);
    }
  }
  return times;
}

std::string cross_check(const Status& before, const Status& after,
                        std::uint64_t completed, std::uint64_t other_served,
                        std::uint64_t model_ops, double client_energy_j) {
  auto n = static_cast<double>(completed);
  char buf[256];
  if (after.algorithm_requests - before.algorithm_requests != n) {
    std::snprintf(buf, sizeof(buf), "client completed %.0f, node counted %.0f algorithm requests",
                  n, after.algorithm_requests - before.algorithm_requests);
    return buf;
  }
  double served = after.requests_served - before.requests_served;
  if (served != n + static_cast<double>(other_served)) {
    std::snprintf(buf, sizeof(buf), "server served %.0f, client expected %.0f", served,
                  n + static_cast<double>(other_served));
    return buf;
  }
  if (after.model_requests - before.model_requests != static_cast<double>(model_ops)) {
    return "model request count differs from the operator's";
  }
  double cache = (after.hits + after.misses) - (before.hits + before.misses);
  if (cache != n) {
    std::snprintf(buf, sizeof(buf), "cache hits+misses %.0f != %.0f inference requests", cache, n);
    return buf;
  }
  double busy = after.busy_joules - before.busy_joules;
  if (std::fabs(busy - client_energy_j) > 1e-9 * std::fabs(busy) + 1e-15) {
    std::snprintf(buf, sizeof(buf), "ledger busy_joules grew %.17g, responses sum to %.17g",
                  busy, client_energy_j);
    return buf;
  }
  return "";
}

double process_cpu_s() {
  timespec t{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
  timespec t{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace e2ebench
