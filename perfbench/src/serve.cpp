// serve-4c — a closed loop of 4 clients against one in-process daemon.
//
// The daemon is serve::Server on an ephemeral loopback port with 4 pool
// workers. Each client keeps ONE persistent TCP connection and submits
// a new spec as soon as the previous job's 'E' frame arrives. A job is 8
// replications of a small classic-window scenario; seed_base advances
// per submit (clients draw tickets from one shared counter). The clients are plain
// sockets with default options: no TCP_NODELAY and no TCP_QUICKACK.
//
//   op      = one job, from the 'S' frame written to the 'E' frame read
//   regimes = first job on a connection vs later jobs. Every first job
//             runs in the set-up wave, so all timed jobs are later jobs.
//   correct = each job streams exactly `runs` 'R' frames and no 'X', and
//             its frame digest equals the stream rebuilt from an
//             in-process CampaignRunner (1 thread) run of the same spec
//   setup   = daemon start, 4 connects and a warm-up wave holding every
//             client's first submit; the median of kSetups lifetimes, each
//             followed by a fifth of the timed loop
//
// Latency floor: the daemon writes each result frame with its own
// write(2) and leaves Nagle on. On a reused connection the client's
// delayed ACK holds the second and later frames of a job for ~40 ms,
// so a later job's latency is ~40 ms plus compute, while the first job
// on a fresh connection (kernel quick-ACK mode) sees no stall.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "common.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "workloads.hpp"

namespace ssmwn::perfbench {

namespace {

constexpr unsigned kClients = 4;
constexpr unsigned kPoolThreads = 4;
constexpr std::size_t kRunsPerJob = 8;
// Daemon lifetimes per untraced run; the timed loop is split evenly
// across them.
constexpr int kSetups = 5;
constexpr std::uint64_t kLoopSeedStride = 100000;  // ≫ jobs per lifetime
// Traced script: 2 × kTraceJobs jobs, odd tickets traced.
constexpr std::size_t kTraceJobs = 96;

std::string job_spec(std::uint64_t seed_base) {
  return "topology = uniform\nn = 100\nradius = 0.14\nvariant = improved\n"
         "mobility = random-direction\nspeed_max = 1.6\nsteps = 12\n"
         "replications = " +
         std::to_string(kRunsPerJob) +
         "\nseed_base = " + std::to_string(seed_base) + "\n";
}

/// Hashes one frame the way both sides see it: type byte, then body.
void digest_frame(Fnv1a& h, char type, const std::string& body) {
  h.bytes(&type, 1);
  h.u64(body.size());
  h.bytes(body.data(), body.size());
}

/// The 'R' body the daemon sends for slot i (the wire format documented
/// in serve/wire.hpp): run, grid, replication, seed, the ten metrics in
/// report order, windows.
std::string result_body(const campaign::CampaignPlan& plan, std::size_t i,
                        const campaign::RunMetrics& m) {
  const auto& entry = plan.runs[i];
  std::string line = std::to_string(i) + ',' + std::to_string(entry.grid_index) +
                     ',' + std::to_string(entry.replication) + ',' +
                     std::to_string(entry.seed);
  for (const double v :
       {m.stability, m.delta, m.reaffiliation, m.cluster_count,
        m.converge_time, m.messages, m.reconverge_time, m.reconverge_messages,
        m.sync_steps, m.sync_messages}) {
    line += ',' + campaign::format_double(v);
  }
  return line + ',' + std::to_string(m.windows);
}

struct Job {
  std::uint64_t seed_base = 0;
  bool first_on_connection = false;
  Clock::time_point start;
  Clock::time_point end;
  double first_frame_ms = 0.0;
  double gap_max_ms = 0.0;
  std::size_t frames = 0;
  std::size_t bytes = 0;
  std::size_t results = 0;
  bool error_frame = false;
  std::uint64_t digest = 0;
  double compute_ms = 0.0;  // filled by verification
  bool traced = false;
  [[nodiscard]] double ms() const { return ms_between(start, end); }
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  return fd;
}

/// One submit on an open connection: write the spec, read frames up to
/// and including 'E' (or an 'X').
Job submit(int fd, std::uint64_t seed_base, bool first, Tracer& tracer,
           std::int64_t op) {
  Job job;
  job.seed_base = seed_base;
  job.first_on_connection = first;
  const std::string spec = job_spec(seed_base);
  Fnv1a h;
  auto span = tracer.span("serve.job", op);
  job.start = Clock::now();
  {
    auto write = tracer.span("wire.write_spec");
    serve::write_frame(fd, serve::FrameType::kSpec, spec);
  }
  Clock::time_point last = job.start;
  serve::Frame frame;
  for (;;) {
    bool got = false;
    {
      auto read = tracer.span("wire.read_frame");
      got = serve::read_frame(fd, frame);
    }
    if (!got) throw std::runtime_error("daemon closed the connection");
    const auto now = Clock::now();
    if (job.frames == 0) job.first_frame_ms = ms_between(job.start, now);
    job.gap_max_ms = std::max(job.gap_max_ms, ms_between(last, now));
    last = now;
    ++job.frames;
    job.bytes += 5 + frame.body.size();
    digest_frame(h, static_cast<char>(frame.type), frame.body);
    if (frame.type == serve::FrameType::kResult) ++job.results;
    if (frame.type == serve::FrameType::kError) job.error_frame = true;
    if (frame.type == serve::FrameType::kEnd ||
        frame.type == serve::FrameType::kError) {
      break;
    }
  }
  job.end = Clock::now();
  job.digest = h.value();
  return job;
}

/// A daemon lifetime: the server thread plus the clients' connections.
class Daemon {
 public:
  Daemon() : server_(options()), thread_([this] { server_.run(); }) {
    try {
      for (unsigned c = 0; c < kClients; ++c) {
        fds_.push_back(connect_loopback(server_.port()));
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int fd(unsigned client) const { return fds_[client]; }

 private:
  /// Closes the clients' ends (their connection threads see EOF), then
  /// drains the daemon and joins its accept thread.
  void stop() {
    for (const int fd : fds_) ::close(fd);
    fds_.clear();
    server_.request_stop();
    thread_.join();
  }

  static serve::ServerOptions options() {
    serve::ServerOptions o;
    o.port = 0;
    o.threads = kPoolThreads;
    return o;
  }

  serve::Server server_;
  std::thread thread_;
  std::vector<int> fds_;
};

/// Runs the closed loop: every client claims the next ticket and
/// submits the job seeded `first_seed + ticket` until `keep_going(ticket)`
/// says stop, so a fixed ticket budget always runs the same seeds. Jobs
/// with odd tickets record spans in `tracer`; even ones run untraced, so
/// the two halves share the host's conditions.
template <typename KeepGoing>
std::vector<Job> closed_loop(Daemon& daemon, std::uint64_t first_seed,
                             Tracer& tracer, KeepGoing keep_going) {
  Tracer off(false);
  std::vector<std::vector<Job>> per_client(kClients);
  std::atomic<std::int64_t> next_ticket{0};
  std::vector<std::thread> clients;
  std::vector<std::exception_ptr> errors(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        for (std::int64_t t = next_ticket++; keep_going(t); t = next_ticket++) {
          const bool traced = t % 2 == 1;
          per_client[c].push_back(submit(daemon.fd(c),
                                         first_seed + static_cast<std::uint64_t>(t),
                                         false, traced ? tracer : off, t));
          per_client[c].back().traced = traced;
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<Job> jobs;
  for (auto& list : per_client) {
    for (auto& job : list) jobs.push_back(job);
  }
  return jobs;
}

/// The warm-up wave: each client submits its connection's first job.
std::vector<Job> wave(Daemon& daemon, std::uint64_t first_seed) {
  std::vector<Job> jobs(kClients);
  std::vector<std::thread> clients;
  Tracer off(false);
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      jobs[c] = submit(daemon.fd(c), first_seed + c, true, off, -1);
    });
  }
  for (auto& t : clients) t.join();
  return jobs;
}

/// Rebuilds every job's expected stream from CampaignRunner at one
/// thread (four jobs at a time) and counts jobs that fail the check.
std::uint64_t verify_jobs(std::vector<Job>& jobs, Tracer& tracer) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> failed{0};
  auto worker = [&] {
    campaign::CampaignRunner runner(1);
    for (std::size_t i = next++; i < jobs.size(); i = next++) {
      Job& job = jobs[i];
      const auto plan =
          campaign::expand(campaign::parse_spec_text(job_spec(job.seed_base)));
      const auto t0 = Clock::now();
      std::vector<campaign::RunMetrics> results;
      {
        auto span = tracer.span("serve.compute", static_cast<std::int64_t>(i));
        results = runner.run(plan);
      }
      job.compute_ms = ms_between(t0, Clock::now());
      Fnv1a h;
      for (std::size_t r = 0; r < results.size(); ++r) {
        digest_frame(h, 'R', result_body(plan, r, results[r]));
      }
      digest_frame(h, 'E', std::to_string(plan.runs.size()));
      const bool ok = !job.error_frame && job.results == plan.runs.size() &&
                      job.digest == h.value();
      if (!ok) ++failed;
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kClients; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return failed.load();
}

}  // namespace

Result run_serve(const Options& options) {
  std::signal(SIGPIPE, SIG_IGN);
  Tracer tracer(options.trace);
  Tracer off(false);
  Result result;
  // Seed bases: disjoint per --seed. Every lifetime's warm-up wave runs
  // the same kClients jobs; each closed loop takes its own range.
  const std::uint64_t base = options.seed * 1000003ULL;
  const auto loop_seed = [&](int lifetime) {
    return base + kClients + static_cast<std::uint64_t>(lifetime) * kLoopSeedStride;
  };
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  std::vector<Job> warmups;
  // One lifetime: daemon start, connects and the warm-up wave (the
  // set-up), then `body` on the warm daemon.
  const auto lifetime = [&](auto&& body) {
    const auto t0 = Clock::now();
    Daemon daemon;
    auto wave_jobs = wave(daemon, base);
    const double setup = seconds_between(t0, Clock::now());
    failed += verify_jobs(wave_jobs, off);
    attempted += wave_jobs.size();
    warmups.insert(warmups.end(), wave_jobs.begin(), wave_jobs.end());
    body(daemon);
    return setup;
  };

  if (!options.trace) {
    // The timed loop is split across kSetups lifetimes, so the set-ups
    // sample the host's state over the whole run rather than its first
    // tenth of a second.
    std::vector<double> setups;
    std::vector<Job> jobs;
    double wall_s = 0.0;
    for (int life = 0; life < kSetups; ++life) {
      setups.push_back(lifetime([&](Daemon& daemon) {
        const auto start = Clock::now();
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(options.seconds / kSetups));
        auto part = closed_loop(daemon, loop_seed(life), off, [&](std::int64_t) {
          return Clock::now() < deadline;
        });
        wall_s += seconds_between(start, Clock::now());
        jobs.insert(jobs.end(), part.begin(), part.end());
      }));
    }
    std::printf("set-ups (s):");
    for (const double v : setups) std::printf(" %.4f", v);
    std::printf("\n");
    std::vector<double> first_ms;
    for (const Job& j : warmups) first_ms.push_back(j.ms());
    std::printf("serve-4c: first job on a connection p50 %.3f ms\n",
                median(first_ms));
    failed += verify_jobs(jobs, off);
    attempted += jobs.size();
    std::vector<Op> ops;
    for (const Job& j : jobs) ops.push_back({j.ms(), j.first_on_connection ? 1 : 0});
    result.correct = regime_census("serve-4c", ops, {"later", "first"});
    result.attempted = attempted;
    result.failed = failed;
    result.add_end_to_end(ops, static_cast<double>(jobs.size()) / wall_s,
                          median(setups));
    return result;
  }

  const auto budget = [](std::int64_t t) {
    return t < static_cast<std::int64_t>(2 * kTraceJobs);
  };
  std::vector<Job> jobs;
  double wall_ms = 0.0;
  (void)lifetime([&](Daemon& daemon) {
    const auto start = Clock::now();
    jobs = closed_loop(daemon, loop_seed(0), tracer, budget);
    wall_ms = ms_between(start, Clock::now());
  });
  failed += verify_jobs(jobs, tracer);
  attempted += jobs.size();
  std::vector<double> first_ms, gap_ms, compute_ms, traced_ms, untraced_ms;
  double frames = 0.0, bytes = 0.0, busy_ms = 0.0;
  for (const Job& j : jobs) {
    (j.traced ? traced_ms : untraced_ms).push_back(j.ms());
    first_ms.push_back(j.first_frame_ms);
    gap_ms.push_back(j.gap_max_ms);
    compute_ms.push_back(j.compute_ms);
    frames += static_cast<double>(j.frames);
    bytes += static_cast<double>(j.bytes);
    busy_ms += j.ms();
  }
  const double n = static_cast<double>(jobs.size());
  result.correct = failed == 0;
  result.attempted = attempted;
  result.failed = failed;
  result.add("serve.first_frame_ms", mean(first_ms), "ms");
  result.add("serve.stream_gap_max_ms", mean(gap_ms), "ms");
  result.add("serve.compute_ms", mean(compute_ms), "ms");
  result.add("wire.frames_per_job", frames / n, "count");
  result.add("wire.bytes_per_job", bytes / n, "count");
  result.add("serve.jobs_in_flight", busy_ms / wall_ms, "count");
  result.add("trace.overhead_pct.serve-4c",
             100.0 * (median(traced_ms) / median(untraced_ms) - 1.0), "%");
  tracer.write(options.trace_out);
  return result;
}

}  // namespace ssmwn::perfbench
