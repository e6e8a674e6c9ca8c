// Serve daemon surface: wire framing (no SIGPIPE on a closed peer), the
// FIFO pool's determinism, submission order and cancellation, and the
// Server end-to-end — concurrent clients receive byte-identical result
// streams for the same spec, errors keep the connection usable, a
// persistent connection streams without a delayed-ACK stall, a spec at
// a tiny radius completes, finished connection threads are reaped, and
// request_stop() drains gracefully.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "serve/worker_pool.hpp"

namespace ssmwn {
namespace {

constexpr const char* kSpecText = R"(
name         = servetest
topology     = uniform
n            = 40
radius       = 0.15
variant      = basic, improved
steps        = 4
replications = 3
seed_base    = 2025
)";

TEST(Wire, FramesRoundTripAcrossASocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  serve::write_frame(fds[0], serve::FrameType::kSpec, "hello spec");
  serve::write_frame(fds[0], serve::FrameType::kResult, "");
  std::string big(100'000, 'x');
  serve::write_frame(fds[0], serve::FrameType::kEnd, big);
  ::shutdown(fds[0], SHUT_WR);

  serve::Frame frame;
  ASSERT_TRUE(serve::read_frame(fds[1], frame));
  EXPECT_EQ(frame.type, serve::FrameType::kSpec);
  EXPECT_EQ(frame.body, "hello spec");
  ASSERT_TRUE(serve::read_frame(fds[1], frame));
  EXPECT_EQ(frame.type, serve::FrameType::kResult);
  EXPECT_EQ(frame.body, "");
  ASSERT_TRUE(serve::read_frame(fds[1], frame));
  EXPECT_EQ(frame.type, serve::FrameType::kEnd);
  EXPECT_EQ(frame.body, big);
  // Clean EOF at a frame boundary is a false return, not an exception.
  EXPECT_FALSE(serve::read_frame(fds[1], frame));
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Wire, RejectsTornAndOversizedFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Length prefix claiming 100 bytes, then EOF after 3: torn frame.
  const unsigned char torn[] = {0, 0, 0, 100, 'S', 'a', 'b'};
  ASSERT_EQ(::write(fds[0], torn, sizeof(torn)),
            static_cast<ssize_t>(sizeof(torn)));
  ::shutdown(fds[0], SHUT_WR);
  serve::Frame frame;
  EXPECT_THROW((void)serve::read_frame(fds[1], frame), std::runtime_error);
  ::close(fds[0]);
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A length prefix beyond kMaxFramePayload must be rejected up front,
  // before any allocation of that size.
  const unsigned char huge[] = {0xff, 0xff, 0xff, 0xff, 'S'};
  ASSERT_EQ(::write(fds[0], huge, sizeof(huge)),
            static_cast<ssize_t>(sizeof(huge)));
  EXPECT_THROW((void)serve::read_frame(fds[1], frame), std::runtime_error);
  // Zero-length frame: no type byte.
  const unsigned char empty[] = {0, 0, 0, 0};
  ASSERT_EQ(::write(fds[0], empty, sizeof(empty)),
            static_cast<ssize_t>(sizeof(empty)));
  EXPECT_THROW((void)serve::read_frame(fds[1], frame), std::runtime_error);
  ::close(fds[0]);
  ::close(fds[1]);
}

// Death-test suites run first, while the process has no other threads.
TEST(WireDeathTest, WriteToAClosedPeerThrowsInsteadOfRaisingSigpipe) {
  // The child restores the default SIGPIPE action (terminate), as in a
  // process embedding a Server without ignoring the signal. A write that
  // raised SIGPIPE would kill it before it could exit 0.
  EXPECT_EXIT(
      {
        std::signal(SIGPIPE, SIG_DFL);
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) std::_Exit(2);
        ::close(fds[1]);
        try {
          serve::write_frame(fds[0], serve::FrameType::kResult, "orphan");
        } catch (const std::runtime_error&) {
          std::_Exit(0);
        }
        std::_Exit(3);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(ServePool, SlotResultsMatchTheCampaignRunner) {
  const auto plan = campaign::expand(campaign::parse_spec_text(kSpecText));
  campaign::CampaignRunner reference(1);
  const auto want = reference.run(plan);

  serve::ServePool pool(4);
  auto job = std::make_shared<serve::ServeJob>(plan);
  pool.submit(job);
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    job->wait_slot(i);
    EXPECT_TRUE(job->failed[i].empty());
    EXPECT_EQ(std::memcmp(&job->results[i], &want[i], sizeof(want[i])), 0)
        << "slot " << i;
  }
  pool.drain();
}

TEST(ServePool, DrainFinishesQueuedWorkBeforeJoining) {
  const auto plan = campaign::expand(campaign::parse_spec_text(kSpecText));
  serve::ServePool pool(2);
  auto job = std::make_shared<serve::ServeJob>(plan);
  pool.submit(job);
  pool.drain();  // must not strand queued runs
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    EXPECT_NE(job->done[i], 0) << "slot " << i << " stranded by drain";
  }
}

TEST(ServePool, RunsExecuteInSubmissionOrder) {
  // One worker makes the execution order the pop order: every slot of
  // the older job A must finish before the newer job B's first slot.
  const auto plan = campaign::expand(campaign::parse_spec_text(kSpecText));
  serve::ServePool pool(1);
  auto a = std::make_shared<serve::ServeJob>(plan);
  auto b = std::make_shared<serve::ServeJob>(plan);
  pool.submit(a);
  pool.submit(b);
  b->wait_slot(0);
  {
    const std::scoped_lock lock(a->mutex);
    for (std::size_t i = 0; i < plan.runs.size(); ++i) {
      EXPECT_NE(a->done[i], 0) << "job A slot " << i << " overtaken by job B";
    }
  }
  pool.drain();
}

TEST(ServePool, CancelledJobCompletesEverySlotUnrun) {
  const auto plan = campaign::expand(campaign::parse_spec_text(kSpecText));
  serve::ServePool pool(2);
  auto job = std::make_shared<serve::ServeJob>(plan);
  job->cancelled = true;
  pool.submit(job);
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    job->wait_slot(i);
    EXPECT_EQ(job->failed[i], "cancelled") << "slot " << i;
  }
  pool.drain();  // must return: cancelled slots leave nothing queued
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

/// Client helper: connect to the server, send one spec, read frames
/// until EOF (write side shut down after the spec, like `ssmwn
/// submit`), return the concatenated transcript.
std::string submit_spec(std::uint16_t port, const std::string& spec) {
  const int fd = connect_loopback(port);
  serve::write_frame(fd, serve::FrameType::kSpec, spec);
  ::shutdown(fd, SHUT_WR);
  std::string transcript;
  serve::Frame frame;
  while (serve::read_frame(fd, frame)) {
    transcript += static_cast<char>(frame.type);
    transcript += frame.body;
    transcript += '\n';
  }
  ::close(fd);
  return transcript;
}

/// A Server running its accept loop on a thread of its own; stopped and
/// joined on destruction, so a failed ASSERT leaves no joinable thread.
struct RunningServer {
  explicit RunningServer(unsigned threads)
      : server([threads] {
          serve::ServerOptions options;
          options.threads = threads;
          return options;
        }()),
        accept_thread([this] { server.run(); }) {}
  ~RunningServer() {
    server.request_stop();
    accept_thread.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  serve::Server server;
  std::thread accept_thread;
};

/// A spec small enough that a job's compute is a few milliseconds.
std::string tiny_spec(int seed_base) {
  return "topology = uniform\nn = 20\nradius = 0.3\nvariant = improved\n"
         "steps = 2\nreplications = 4\nseed_base = " +
         std::to_string(seed_base) + "\n";
}

/// Virtual address space of this process (VmSize), in kB.
long vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      long kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(1 << 12, '\n');
  }
  return -1;
}

TEST(Server, ConcurrentClientsGetByteIdenticalStreamsAndDrainIsClean) {
  std::signal(SIGPIPE, SIG_IGN);
  serve::ServerOptions options;
  options.port = 0;  // ephemeral
  options.threads = 3;
  serve::Server server(options);
  ASSERT_GT(server.port(), 0);
  std::thread accept_thread([&server] { server.run(); });

  std::string t1, t2, t3;
  {
    std::thread c1([&] { t1 = submit_spec(server.port(), kSpecText); });
    std::thread c2([&] { t2 = submit_spec(server.port(), kSpecText); });
    // A malformed spec on a third connection must not disturb the others.
    std::thread c3(
        [&] { t3 = submit_spec(server.port(), "no_such_key = 1\n"); });
    c1.join();
    c2.join();
    c3.join();
  }
  // The two identical specs yield byte-identical transcripts ending in
  // an end frame, regardless of work-stealing interleavings.
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  const auto plan = campaign::expand(campaign::parse_spec_text(kSpecText));
  EXPECT_NE(t1.find("E" + std::to_string(plan.runs.size())),
            std::string::npos);
  // The bad spec got an error frame, nothing else.
  EXPECT_EQ(t3.substr(0, 1), "X");
  EXPECT_EQ(t3.find('R'), std::string::npos);

  // Graceful drain: request_stop from this thread (the CLI calls it
  // from a SIGTERM handler — same entry point) and run() must return.
  server.request_stop();
  accept_thread.join();
}

TEST(Server, PersistentConnectionStreamsLaterJobsWithoutStall) {
  // A client with default socket options keeps one connection open for
  // 8 sequential jobs. The first job runs while the kernel quick-ACKs a
  // fresh connection; later ones would each wait ~40 ms on the client's
  // delayed ACK if the daemon let Nagle hold its second result frame.
  RunningServer daemon(2);
  const int fd = connect_loopback(daemon.server.port());
  std::vector<double> later_ms;
  [&] {  // ASSERTs leave this lambda only, so fd is always closed
    for (int job = 0; job < 8; ++job) {
      const auto start = std::chrono::steady_clock::now();
      serve::write_frame(fd, serve::FrameType::kSpec, tiny_spec(100 + job));
      std::size_t results = 0;
      serve::Frame frame;
      for (;;) {
        ASSERT_TRUE(serve::read_frame(fd, frame));
        ASSERT_NE(frame.type, serve::FrameType::kError) << frame.body;
        if (frame.type == serve::FrameType::kEnd) break;
        ++results;
      }
      EXPECT_EQ(results, 4u);
      const std::chrono::duration<double, std::milli> took =
          std::chrono::steady_clock::now() - start;
      if (job > 0) later_ms.push_back(took.count());
    }
  }();
  ::close(fd);
  ASSERT_EQ(later_ms.size(), 7u);
  std::nth_element(later_ms.begin(), later_ms.begin() + 3, later_ms.end());
  EXPECT_LT(later_ms[3], 20.0) << "later jobs on a persistent connection stall";
}

TEST(Server, OversizedSpecGetsAnErrorFrameAndTheConnectionKeepsServing) {
  // 1e14 runs would reach expand's reserve (length_error, connection
  // dropped) or allocate gigabytes; the daemon must refuse it up front.
  RunningServer daemon(1);
  const int fd = connect_loopback(daemon.server.port());
  [&] {  // ASSERTs leave this lambda only, so fd is always closed
    serve::write_frame(fd, serve::FrameType::kSpec,
                       "n = 20\nradius = 0.3\nreplications = 1e14\n");
    serve::Frame frame;
    ASSERT_TRUE(serve::read_frame(fd, frame));
    EXPECT_EQ(frame.type, serve::FrameType::kError);
    EXPECT_NE(frame.body.find(std::to_string(serve::kMaxRunsPerSpec)),
              std::string::npos)
        << frame.body;
    // Same connection, ordinary job: four results, then the end frame.
    serve::write_frame(fd, serve::FrameType::kSpec, tiny_spec(11));
    std::size_t results = 0;
    for (;;) {
      ASSERT_TRUE(serve::read_frame(fd, frame));
      ASSERT_NE(frame.type, serve::FrameType::kError) << frame.body;
      if (frame.type == serve::FrameType::kEnd) break;
      ++results;
    }
    EXPECT_EQ(results, 4u);
    EXPECT_EQ(frame.body, "4");
  }();
  ::close(fd);
}

TEST(Server, TinyRadiusSpecGetsAnEndFrame) {
  // The spec grammar accepts any 0 < radius < 1e9. A side-radius cell
  // grid over 50 nodes at radius 1e-6 would need ~10^12 cells; both runs
  // must stream their results and the job end with an end frame.
  RunningServer daemon(1);
  const std::string transcript = submit_spec(
      daemon.server.port(),
      "n = 50\nradius = 1e-6\nsteps = 2\nreplications = 2\n");
  ASSERT_FALSE(transcript.empty());
  EXPECT_NE(transcript.front(), 'X') << transcript;
  EXPECT_GE(transcript.size(), 3u);
  EXPECT_EQ(transcript.substr(transcript.size() - 3), "E2\n") << transcript;
}

TEST(Server, FinishedConnectionThreadsAreReaped) {
  // Each exited but unjoined connection thread keeps its stack mapped
  // (8 MB by default), so 63 of them would add ~500 MB of VmSize. One
  // pool worker: it takes its malloc arena during the first connection,
  // before the baseline, as a second worker might not.
  RunningServer daemon(1);
  const std::string spec = tiny_spec(7);
  ASSERT_EQ(submit_spec(daemon.server.port(), spec).back(), '\n');
  const long baseline_kb = vm_size_kb();
  ASSERT_GT(baseline_kb, 0);
  for (int c = 1; c < 64; ++c) {
    ASSERT_FALSE(submit_spec(daemon.server.port(), spec).empty());
    // Let the finished connection thread exit before the next accept,
    // so its successor reuses its malloc arena instead of reserving one.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(vm_size_kb() - baseline_kb, 64L * 1024)
      << "connection threads are not being joined";
}

}  // namespace
}  // namespace ssmwn
