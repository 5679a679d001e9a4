// Keep-alive HTTP/1.1 load generator over loopback.  One thread drives every
// connection through poll(): a closed loop keeps one request outstanding per
// connection; an open loop sends on a fixed schedule and pipelines onto the
// least-busy connection when none is idle (up to kMaxPipelined each), timing
// each request from when it was due.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

std::int64_t now_ns();

struct Response {
  int status = 0;
  std::string_view body;  // valid until the connection reads again
};

/// One non-blocking keep-alive connection to 127.0.0.1.
class Connection {
 public:
  explicit Connection(std::uint16_t port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  void queue(std::string_view wire) { out_.append(wire); }
  bool has_output() const { return out_off_ < out_.size(); }
  /// Writes what the socket takes; throws on a broken connection.
  void flush();
  /// Reads what is available; throws when the peer closed or failed.
  void read_available();
  /// Pops one complete response from the read buffer.
  bool pop(Response& out);
  /// Blocking request/response helper for set-up, polls and swaps.
  Response roundtrip(std::string_view wire, double timeout_s = 30.0);

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
  std::size_t in_off_ = 0;
};

std::string http_request(std::string_view method, std::string_view target,
                         std::string_view body = {});

/// Side traffic on its own connection (the lifecycle operator): asked for a
/// request whenever its connection is idle, told of each response.
struct SideChannel {
  Connection* conn = nullptr;
  std::function<std::optional<std::string>(std::int64_t now)> next;
  std::function<void(const Response&, std::int64_t sent, std::int64_t done)> done;
};

struct InFlight {
  int tmpl = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
};

struct PhasePlan {
  double seconds = 1.0;
  double rate = 0.0;  // offered req/s; 0 = closed loop
  double window_s = 0.25;
  std::function<int()> next;  // template id of the next request
  std::function<const std::string&(int)> wire;
  std::function<void(const InFlight&, std::int64_t done_ns, const Response&)>
      on_response;
};

struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // non-200 answers
  double elapsed_s = 0.0;
  std::vector<double> window_rps;                   // closed loop
  std::vector<std::vector<double>> window_latency_ms;  // open loop, by due time
  std::vector<double> lateness_ms;                  // open loop: sent - due
};

/// Most requests an open loop keeps outstanding on one connection.  Requests
/// due beyond that wait in the generator, timed from when they were due, so a
/// connection never holds more than a few KiB of unread requests and each
/// server read ends on a request boundary.
inline constexpr std::size_t kMaxPipelined = 16;

/// Runs one phase over `conns`; drains every outstanding request before it
/// returns and throws if one never completes.
PhaseResult run_phase(const std::vector<Connection*>& conns,
                      const PhasePlan& plan, SideChannel* side = nullptr);

double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);

}  // namespace e2ebench
