// Kill-and-resume harness: the out-of-process half of the checkpoint
// guarantee. Real `ssmwn campaign` subprocesses are SIGKILLed mid-sweep
// at randomized (but seeded) points, resumed from whatever checkpoint
// survived on disk, and the final CSV/JSON bytes must equal an
// uninterrupted run's — across --threads {1, 4}. SIGKILL is the honest
// crash model: no atexit, no stack unwinding, no flushing — whatever
// the atomic-rename discipline left on disk is all the resume gets.
//
// Kill points are measured in progress, not time: the harness watches
// the checkpoint file and kills right after the k-th publish it sees
// (each publish renames a new file over it), so a kill lands mid-sweep
// on a host of any speed.
//
// The CLI binary's path arrives via SSMWN_CLI_BIN (set by CMake from
// $<TARGET_FILE:ssmwn_cli>); the test is skipped when absent so the
// bare test binary still runs standalone.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

// 80 runs, so a sweep publishes up to 80 checkpoints — more than every
// seeded kill point of one lane adds up to — while staying in the
// campaign-tier time budget. checkpoint-every=1 maximizes the number of
// distinct crash surfaces a kill can hit (including mid-publish).
constexpr const char* kSpecText = R"(
name         = killrun
topology     = uniform
n            = 300
radius       = 0.08
variant      = basic, improved
mobility     = random-direction
speed_max    = 1.6
tau          = 0.9
steps        = 40
replications = 40
seed_base    = 20250807
)";

std::string cli_bin() {
  const char* bin = std::getenv("SSMWN_CLI_BIN");
  return bin == nullptr ? std::string() : std::string(bin);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// What identifies one published version of a file: every publish
/// renames a freshly written file over the path, so its inode or its
/// times move with each one.
struct Stamp {
  bool exists = false;
  ino_t inode = 0;
  timespec mtime{};
  timespec ctime{};

  bool operator==(const Stamp& o) const {
    return exists == o.exists && inode == o.inode &&
           mtime.tv_sec == o.mtime.tv_sec &&
           mtime.tv_nsec == o.mtime.tv_nsec &&
           ctime.tv_sec == o.ctime.tv_sec && ctime.tv_nsec == o.ctime.tv_nsec;
  }
};

Stamp stamp_of(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return {};
  return {true, st.st_ino, st.st_mtim, st.st_ctim};
}

/// When to SIGKILL a child: never, or once it has published `publishes`
/// new versions of `watched` (0: as soon as it has staged `staged`, its
/// first output file, before any checkpoint of its own exists).
struct KillPoint {
  bool enabled = false;
  int publishes = 0;
  std::string watched;
  std::string staged;
};

struct Exit {
  bool signaled = false;
  int code = -1;  // exit status, or the signal number when signaled
};

/// fork/exec the CLI with stdout/stderr sent to /dev/null, SIGKILLing it
/// at `kill` (polled every 200 µs while it runs); returns how the child
/// ended.
Exit run_cli(const std::vector<std::string>& args, const KillPoint& kill = {}) {
  std::vector<char*> argv;
  static std::string bin;  // exec needs stable storage
  bin = cli_bin();
  argv.push_back(bin.data());
  std::vector<std::string> stable(args);
  for (auto& arg : stable) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(null_fd, STDERR_FILENO);
      ::close(null_fd);
    }
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  int status = 0;
  bool reaped = false;
  if (kill.enabled) {
    const std::string staged = kill.staged + ".tmp." + std::to_string(pid);
    Stamp last = stamp_of(kill.watched);
    int seen = 0;
    while (!(reaped = ::waitpid(pid, &status, WNOHANG) == pid)) {
      const Stamp now = stamp_of(kill.watched);
      if (now.exists && !(now == last)) ++seen;
      last = now;
      if (kill.publishes == 0 ? file_exists(staged) : seen >= kill.publishes) {
        ::kill(pid, SIGKILL);
        break;
      }
      ::usleep(200);
    }
  }
  if (!reaped) ::waitpid(pid, &status, 0);
  Exit out;
  if (WIFSIGNALED(status)) {
    out.signaled = true;
    out.code = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    out.code = WEXITSTATUS(status);
  }
  return out;
}

class ResumeKillTest : public testing::Test {
 protected:
  void SetUp() override {
    if (cli_bin().empty()) {
      GTEST_SKIP() << "SSMWN_CLI_BIN not set (run via ctest)";
    }
    dir_ = testing::TempDir() + "ssmwn_kill_" + std::to_string(::getpid());
    ::mkdir(dir_.c_str(), 0755);
    spec_ = dir_ + "/spec.txt";
    std::ofstream out(spec_);
    out << kSpecText;
  }

  void TearDown() override {
    // Killed children leave .tmp.<pid> staging files behind (that is
    // the point of the atomic-rename discipline) — sweep everything.
    if (DIR* dir = ::opendir(dir_.c_str())) {
      while (const dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") {
          std::remove((dir_ + "/" + name).c_str());
        }
      }
      ::closedir(dir);
    }
    ::rmdir(dir_.c_str());
  }

  std::string dir_, spec_;
};

TEST_F(ResumeKillTest, KilledSweepsResumeToIdenticalBytes) {
  // Uninterrupted reference (single run; replay_test already proves the
  // reference itself is thread-count independent).
  const std::string base_csv = dir_ + "/base.csv";
  const std::string base_json = dir_ + "/base.json";
  const auto ref = run_cli({"campaign", spec_, "--quiet", "--threads", "2",
                            "--csv", base_csv, "--json", base_json},
                           {});
  ASSERT_FALSE(ref.signaled);
  ASSERT_EQ(ref.code, 0);
  const std::string want_csv = slurp(base_csv);
  const std::string want_json = slurp(base_json);
  ASSERT_FALSE(want_csv.empty());
  ASSERT_FALSE(want_json.empty());

  // Seeded "random" kill points: deterministic in CI, still spread over
  // genuinely different sweep phases — after the k-th checkpoint publish
  // an attempt makes, k in [1, 16], so the four kills of a lane stop
  // short of its 80 runs. The very first kill lands before the first
  // checkpoint exists — resume must then be told to start fresh, which
  // the harness does exactly like a user would (no --resume).
  unsigned rng = 0x5eed;
  auto next_publishes = [&rng] {
    rng = rng * 1664525u + 1013904223u;
    return 1 + static_cast<int>((rng >> 8) % 16u);
  };
  bool first_kill = true;

  int total_kills = 0;
  for (const char* threads : {"1", "4"}) {
    const std::string ckpt = dir_ + "/c.ckpt";
    const std::string out_csv = dir_ + "/out.csv";
    const std::string out_json = dir_ + "/out.json";
    std::remove(ckpt.c_str());

    // Kill it up to 4 times, then let the final attempt run to the end.
    int kills = 0;
    for (int attempt = 0; attempt < 4; ++attempt) {
      std::vector<std::string> args = {"campaign", spec_,      "--quiet",
                                       "--threads", threads,    "--csv",
                                       out_csv,     "--json",   out_json,
                                       "--checkpoint-every", "1"};
      if (file_exists(ckpt)) {
        args.insert(args.end(), {"--resume", ckpt});
      } else {
        args.insert(args.end(), {"--checkpoint", ckpt});
      }
      KillPoint kill{true, first_kill ? 0 : next_publishes(), ckpt, out_csv};
      first_kill = false;
      const auto r = run_cli(args, kill);
      if (r.signaled) {
        ++kills;
        continue;
      }
      ASSERT_EQ(r.code, 0) << "clean run failed (threads=" << threads << ")";
      break;  // finished before the kill fired — fine, just less chaos
    }
    std::vector<std::string> args = {"campaign", spec_,    "--quiet",
                                     "--threads", threads, "--csv",
                                     out_csv,     "--json", out_json};
    if (file_exists(ckpt)) args.insert(args.end(), {"--resume", ckpt});
    const auto final_run = run_cli(args);
    ASSERT_FALSE(final_run.signaled);
    ASSERT_EQ(final_run.code, 0);

    EXPECT_EQ(slurp(out_csv), want_csv)
        << "threads=" << threads << " after " << kills << " kill(s)";
    EXPECT_EQ(slurp(out_json), want_json)
        << "threads=" << threads << " after " << kills << " kill(s)";
    total_kills += kills;
  }
  // The harness is worthless if every child finished before its kill
  // fired; the first kill point (staged, no checkpoint yet) cannot be
  // outrun, and each later one stops short of the sweep's publishes.
  EXPECT_GE(total_kills, 1) << "no SIGKILL landed mid-sweep";
}

TEST_F(ResumeKillTest, TornCheckpointRejectedBeforeAnyExecution) {
  // Produce a valid checkpoint, then truncate it.
  const std::string ckpt = dir_ + "/c.ckpt";
  const auto make = run_cli({"campaign", spec_, "--quiet", "--threads", "2",
                             "--checkpoint", ckpt});
  ASSERT_FALSE(make.signaled);
  ASSERT_EQ(make.code, 0);
  const std::string good = slurp(ckpt);
  ASSERT_GT(good.size(), 64u);

  const std::string out_csv = dir_ + "/out.csv";
  for (const std::size_t keep : {good.size() / 3, good.size() - 2}) {
    {
      std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
      out << good.substr(0, keep);
    }
    std::remove(out_csv.c_str());
    const auto r = run_cli(
        {"campaign", spec_, "--quiet", "--resume", ckpt, "--csv", out_csv});
    ASSERT_FALSE(r.signaled);
    // Exit 2 (bad arguments), and no partial execution: the output file
    // must not even have been staged into existence.
    EXPECT_EQ(r.code, 2) << "truncated to " << keep << " bytes";
    EXPECT_FALSE(file_exists(out_csv));
  }

  // Checkpoint for a different spec (edited seed_base) — same contract.
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out << good;
  }
  std::string other = kSpecText;
  other.replace(other.find("20250807"), 8, "20250808");
  {
    std::ofstream out(spec_);
    out << other;
  }
  const auto r = run_cli(
      {"campaign", spec_, "--quiet", "--resume", ckpt, "--csv", out_csv});
  ASSERT_FALSE(r.signaled);
  EXPECT_EQ(r.code, 2);
  EXPECT_FALSE(file_exists(out_csv));
}

}  // namespace
