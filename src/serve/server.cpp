#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "campaign/spec.hpp"
#include "serve/wire.hpp"

namespace ssmwn::serve {

namespace {

void close_fd(int& fd) noexcept {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// One result frame body: plan slot coordinates, the run's seed, the
/// ten metrics in aggregate.hpp report order, then the window count —
/// all numbers through the same formatting the CSV reports use, so the
/// stream is byte-deterministic.
std::string result_line(const campaign::CampaignPlan& plan, std::size_t i,
                        const campaign::RunMetrics& m) {
  const auto& entry = plan.runs[i];
  std::string line;
  line += std::to_string(i);
  line += ',';
  line += std::to_string(entry.grid_index);
  line += ',';
  line += std::to_string(entry.replication);
  line += ',';
  line += std::to_string(entry.seed);
  const double metrics[] = {m.stability,       m.delta,
                            m.reaffiliation,   m.cluster_count,
                            m.converge_time,   m.messages,
                            m.reconverge_time, m.reconverge_messages,
                            m.sync_steps,      m.sync_messages};
  for (const double value : metrics) {
    line += ',';
    line += campaign::format_double(value);
  }
  line += ',';
  line += std::to_string(m.windows);
  return line;
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options), runner_(options.threads, options.exec) {
  if (::pipe2(stop_pipe_, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("serve: cannot create stop pipe: ") +
                             std::strerror(errno));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("serve: cannot create socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, SOMAXCONN) != 0) {
    const std::string reason = std::strerror(errno);
    close_fd(listen_fd_);
    throw std::invalid_argument("serve: cannot listen on port " +
                                std::to_string(options.port) + ": " + reason);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const std::string reason = std::strerror(errno);
    close_fd(listen_fd_);
    throw std::runtime_error("serve: getsockname failed: " + reason);
  }
  port_ = ntohs(bound.sin_port);
}

Server::~Server() {
  request_stop();
  {
    const std::scoped_lock lock(threads_mutex_);
    join_connections(/*finished_only=*/false);
  }
  close_fd(listen_fd_);
  close_fd(stop_pipe_[0]);
  close_fd(stop_pipe_[1]);
}

void Server::request_stop() noexcept {
  stopping_.store(true, std::memory_order_release);
  // Only async-signal-safe calls past this point: this runs from the
  // SIGTERM handler. The byte's value is irrelevant; the wakeup is.
  const char byte = 's';
  [[maybe_unused]] const ssize_t rc = ::write(stop_pipe_[1], &byte, 1);
}

void Server::run() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {stop_pipe_[0], POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("serve: poll failed: ") +
                               std::strerror(errno));
    }
    if ((fds[1].revents & POLLIN) != 0 ||
        stopping_.load(std::memory_order_acquire)) {
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw std::runtime_error(std::string("serve: accept failed: ") +
                               std::strerror(errno));
    }
    const int one = 1;
    if (::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) !=
        0) {
      ::close(conn);  // would stall every later job; refuse it outright
      continue;
    }
    const std::scoped_lock lock(threads_mutex_);
    join_connections(/*finished_only=*/true);
    Connection& c = connections_.emplace_back();
    c.thread = std::thread([this, conn, &c] {
      serve_connection(conn);
      c.done.store(true, std::memory_order_release);
    });
  }
  // Drain: no new connections; in-flight connections finish their
  // current spec (they check stopping_ before reading the next one);
  // then the runner finishes every queued run before its workers join.
  close_fd(listen_fd_);
  {
    const std::scoped_lock lock(threads_mutex_);
    join_connections(/*finished_only=*/false);
  }
  runner_.drain();
}

void Server::join_connections(bool finished_only) {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (finished_only && !it->done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    if (it->thread.joinable()) it->thread.join();
    it = connections_.erase(it);
  }
}

void Server::serve_connection(int fd) {
  try {
    Frame frame;
    while (!stopping_.load(std::memory_order_acquire) &&
           read_frame(fd, frame)) {
      if (frame.type != FrameType::kSpec) {
        write_frame(fd, FrameType::kError, "expected a spec ('S') frame");
        continue;
      }
      std::shared_ptr<campaign::RunJob> job;
      try {
        const auto spec = campaign::parse_spec_text(frame.body);
        if (campaign::run_count_bound(spec) > kMaxRunsPerSpec) {
          write_frame(fd, FrameType::kError,
                      "spec may expand to more than " +
                          std::to_string(kMaxRunsPerSpec) +
                          " runs (replications x sweep values); split it");
          continue;
        }
        job = std::make_shared<campaign::RunJob>(campaign::expand(spec));
      } catch (const std::invalid_argument& e) {
        write_frame(fd, FrameType::kError, e.what());
        continue;
      }
      runner_.submit(job);
      // Stream in plan order: slot i+1 is not read before slot i, so the
      // client sees the same bytes however the runner scheduled the runs.
      try {
        for (std::size_t i = 0; i < job->plan.runs.size(); ++i) {
          job->wait_slot(i);
          if (job->errors[i] != nullptr) {
            write_frame(fd, FrameType::kError,
                        "run " + std::to_string(i) + ": " + job->error_text(i));
          } else {
            write_frame(fd, FrameType::kResult, result_line(job->plan, i,
                                                            job->results[i]));
          }
        }
        write_frame(fd, FrameType::kEnd,
                    std::to_string(job->plan.runs.size()));
      } catch (const std::exception&) {
        // Nobody is left to read the rest: free the workers the job's
        // queued runs would hold up for every other client.
        job->cancelled.store(true, std::memory_order_release);
        throw;
      }
    }
  } catch (const std::exception&) {
    // Torn frame or dead peer: nothing to report to — drop the
    // connection and keep the daemon serving everyone else.
  }
  ::close(fd);
}

}  // namespace ssmwn::serve
