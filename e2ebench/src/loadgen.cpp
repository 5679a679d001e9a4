#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace e2ebench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Connection::Connection(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd_);
    throw std::runtime_error("connect() failed");
  }
  pollfd p{fd_, POLLOUT, 0};
  int err = 0;
  socklen_t len = sizeof(err);
  if (::poll(&p, 1, 5000) != 1 ||
      ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    ::close(fd_);
    throw std::runtime_error("connect to loopback port failed");
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::flush() {
  while (out_off_ < out_.size()) {
    ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                       MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      throw std::runtime_error("send on a keep-alive connection failed");
    }
  }
  out_.clear();
  out_off_ = 0;
}

void Connection::read_available() {
  if (in_off_ > 0 && in_off_ * 2 >= in_.size()) {
    in_.erase(0, in_off_);
    in_off_ = 0;
  }
  char buf[65536];
  for (;;) {
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) return;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      throw std::runtime_error("server closed a keep-alive connection");
    }
  }
}

bool Connection::pop(Response& out) {
  std::string_view buffered(in_);
  buffered.remove_prefix(in_off_);
  std::size_t head_end = buffered.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return false;
  std::string_view head = buffered.substr(0, head_end);
  constexpr std::string_view kLength = "Content-Length: ";
  std::size_t at = head.find(kLength);
  if (head.substr(0, 9) != "HTTP/1.1 " || head.size() < 12 ||
      at == std::string_view::npos) {
    throw std::runtime_error("malformed response head");
  }
  std::size_t length = std::strtoull(head.data() + at + kLength.size(), nullptr, 10);
  if (buffered.size() < head_end + 4 + length) return false;
  out.status = std::atoi(std::string(head.substr(9, 3)).c_str());
  out.body = buffered.substr(head_end + 4, length);
  in_off_ += head_end + 4 + length;
  return true;
}

Response Connection::roundtrip(std::string_view wire, double timeout_s) {
  queue(wire);
  std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  Response response;
  for (;;) {
    flush();
    if (!has_output() && pop(response)) return response;
    std::int64_t left_ms = (deadline - now_ns()) / 1000000;
    if (left_ms <= 0) throw std::runtime_error("request timed out");
    pollfd p{fd_, static_cast<short>(POLLIN | (has_output() ? POLLOUT : 0)), 0};
    ::poll(&p, 1, static_cast<int>(std::min<std::int64_t>(left_ms, 1000)));
    if (p.revents & (POLLIN | POLLERR | POLLHUP)) read_available();
  }
}

std::string http_request(std::string_view method, std::string_view target,
                         std::string_view body) {
  std::string wire;
  wire.reserve(body.size() + target.size() + 96);
  wire.append(method).append(" ").append(target).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (!body.empty() || method == "POST") {
    wire.append("Content-Type: application/json\r\nContent-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  wire.append("\r\n").append(body);
  return wire;
}

PhaseResult run_phase(const std::vector<Connection*>& conns,
                      const PhasePlan& plan, SideChannel* side) {
  const bool open = plan.rate > 0.0;
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(plan.seconds / plan.window_s + 1e-9)));
  const auto window_ns = static_cast<std::int64_t>(plan.window_s * 1e9);
  const auto total =
      open ? static_cast<std::uint64_t>(std::llround(plan.rate * plan.seconds)) : 0;
  const double gap_ns = open ? 1e9 / plan.rate : 0.0;

  PhaseResult result;
  std::vector<std::uint64_t> window_done(windows, 0);
  result.window_latency_ms.resize(open ? windows : 0);
  std::vector<std::deque<InFlight>> inflight(conns.size());
  std::deque<std::int64_t> side_inflight;

  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(plan.seconds * 1e9);
  const std::int64_t drain_deadline = end + 30'000'000'000LL;
  std::size_t rr = 0;

  auto send = [&](std::size_t c, std::int64_t due, std::int64_t now) {
    int tmpl = plan.next();
    conns[c]->queue(plan.wire(tmpl));
    inflight[c].push_back({tmpl, due, now});
    ++result.sent;
    if (open) result.lateness_ms.push_back(static_cast<double>(now - due) * 1e-6);
  };

  if (!open) {
    std::int64_t now = now_ns();
    for (std::size_t c = 0; c < conns.size(); ++c) send(c, now, now);
  }

  std::vector<pollfd> fds(conns.size() + (side ? 1 : 0));
  for (;;) {
    std::int64_t now = now_ns();
    if (open) {
      while (result.sent < total &&
             t0 + static_cast<std::int64_t>(static_cast<double>(result.sent) * gap_ns) <= now) {
        std::int64_t due =
            t0 + static_cast<std::int64_t>(static_cast<double>(result.sent) * gap_ns);
        std::size_t best = rr % conns.size();
        for (std::size_t k = 0; k < conns.size(); ++k) {
          std::size_t c = (rr + k) % conns.size();
          if (inflight[c].size() < inflight[best].size()) best = c;
        }
        if (inflight[best].size() >= kMaxPipelined) break;  // waits, still timed from due
        ++rr;
        send(best, due, now);
      }
    }
    bool sending_done = open ? result.sent >= total : now >= end;
    if (side && side_inflight.empty() && !sending_done) {
      if (auto wire = side->next(now)) {
        side->conn->queue(*wire);
        side_inflight.push_back(now);
      }
    }
    std::size_t outstanding = 0;
    for (const auto& q : inflight) outstanding += q.size();
    if (sending_done && outstanding == 0 && side_inflight.empty()) break;
    if (now > drain_deadline) {
      throw std::runtime_error("requests still outstanding 30 s after the phase");
    }

    for (std::size_t c = 0; c < conns.size(); ++c) {
      conns[c]->flush();
      fds[c] = {conns[c]->fd(),
                static_cast<short>(POLLIN | (conns[c]->has_output() ? POLLOUT : 0)),
                0};
    }
    if (side) {
      side->conn->flush();
      fds.back() = {side->conn->fd(),
                    static_cast<short>(POLLIN |
                                       (side->conn->has_output() ? POLLOUT : 0)),
                    0};
    }
    std::int64_t wait_ns = 5'000'000;
    if (open && result.sent < total && outstanding < conns.size() * kMaxPipelined) {
      std::int64_t next_due =
          t0 + static_cast<std::int64_t>(static_cast<double>(result.sent) * gap_ns);
      wait_ns = std::clamp<std::int64_t>(next_due - now_ns(), 0, wait_ns);
    } else if (side && side_inflight.empty() && !sending_done) {
      wait_ns = 1'000'000;
    }
    timespec ts{0, static_cast<long>(wait_ns)};
    int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;

    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (!(fds[c].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      conns[c]->read_available();
      Response response;
      while (!inflight[c].empty() && conns[c]->pop(response)) {
        std::int64_t done = now_ns();
        InFlight request = inflight[c].front();
        inflight[c].pop_front();
        ++result.completed;
        if (response.status != 200) ++result.failed;
        plan.on_response(request, done, response);
        if (open) {
          auto w = static_cast<std::size_t>((request.due_ns - t0) / window_ns);
          result.window_latency_ms[std::min(w, windows - 1)].push_back(
              static_cast<double>(done - request.due_ns) * 1e-6);
        } else {
          auto w = static_cast<std::size_t>((done - t0) / window_ns);
          if (w < windows) ++window_done[w];
          if (done < end) send(c, done, done);
        }
      }
    }
    if (side && (fds.back().revents & (POLLIN | POLLERR | POLLHUP))) {
      side->conn->read_available();
      Response response;
      while (!side_inflight.empty() && side->conn->pop(response)) {
        std::int64_t sent = side_inflight.front();
        side_inflight.pop_front();
        side->done(response, sent, now_ns());
      }
    }
  }
  result.elapsed_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (!open) {
    for (std::uint64_t n : window_done) {
      result.window_rps.push_back(static_cast<double>(n) / plan.window_s);
    }
  }
  return result;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

}  // namespace e2ebench
