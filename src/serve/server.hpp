// The `ssmwn serve` daemon: scenario specs in, run results out.
//
// One long-lived TCP listener; each accepted connection gets its own
// thread that speaks the framed protocol (serve/wire.hpp): read a spec
// frame, expand it, submit it as one campaign::RunJob to the shared
// campaign::CampaignRunner (the same persistent FIFO pool batch
// campaigns run on), then stream result frames back *in plan order* — a
// run that throws becomes an error frame carrying its what() text, the
// same text `ssmwn campaign` reports for it; workers complete slots in
// whatever order scheduling produces, but the connection thread waits
// on slot i before slot i+1, so the client-visible stream is
// byte-deterministic. A connection can submit any number of specs
// sequentially; concurrent specs come from concurrent connections, all
// multiplexed onto the one runner (which is the point: its workspaces
// and threads are shared capacity, not per-request cost).
//
// Every accepted socket gets TCP_NODELAY: a frame leaves as soon as
// its run is done instead of waiting out the client's delayed ACK of
// the previous one (~40 ms per job on a reused connection). A failed
// frame write means the client is gone, so the job is cancelled and its
// queued runs stop occupying workers. Finished connection threads are
// joined by the accept loop before it starts the next one. A spec whose
// run count could exceed kMaxRunsPerSpec is answered with an error frame
// before anything is expanded, and the connection keeps serving.
//
// Shutdown is a graceful drain, reachable from a signal handler:
// request_stop() writes one byte to a self-pipe (async-signal-safe),
// the accept loop's poll wakes, the listener closes (no new
// connections), in-flight connections finish the spec they are serving
// and see the stop flag before reading another, and the runner drains
// its queue before the workers join. Nothing in flight is dropped.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <thread>

#include "campaign/runner.hpp"

namespace ssmwn::serve {

/// Most runs one spec may schedule (campaign::run_count_bound): a job
/// holds a plan entry, a result slot and a queued task per run, so an
/// unchecked `replications = 1e14` would try to allocate them all.
inline constexpr std::size_t kMaxRunsPerSpec = std::size_t{1} << 16;

struct ServerOptions {
  /// Port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral port
  /// (tests bind 0 and read the real port back from port()).
  std::uint16_t port = 0;
  /// Runner worker count; 0 = hardware concurrency.
  unsigned threads = 0;
  campaign::ExecutionOptions exec;
};

class Server {
 public:
  /// Binds and listens; throws std::invalid_argument if the port cannot
  /// be bound (the bad-arguments exit, like every precondition failure).
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actually bound port (resolves port 0 to the kernel's choice).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// The runner's worker count (resolves threads = 0).
  [[nodiscard]] unsigned thread_count() const noexcept {
    return runner_.thread_count();
  }

  /// Accept loop; returns after request_stop() once every connection
  /// has finished its in-flight spec and the runner has drained.
  void run();

  /// Initiates the graceful drain. Async-signal-safe (one write(2) to a
  /// self-pipe) — designed to be called from a SIGTERM/SIGINT handler.
  void request_stop() noexcept;

 private:
  /// A connection thread and the flag it sets as its last act: an
  /// exited but unjoined thread still pins its stack mapping.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void serve_connection(int fd);
  /// Joins and forgets connection threads (only those already done when
  /// `finished_only`). Caller holds threads_mutex_.
  void join_connections(bool finished_only);

  ServerOptions options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};
  campaign::CampaignRunner runner_;
  std::mutex threads_mutex_;
  std::list<Connection> connections_;  // list: threads hold &Connection
};

}  // namespace ssmwn::serve
