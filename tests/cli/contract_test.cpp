// CLI contract: execs the built `ssmwn` and checks what a caller sees —
// the exit code and stdout. Bad input of any kind (an unknown flag, a
// value out of range, a flag the chosen mode never reads, an extra
// positional, an unwritable output path) exits 2 before any work, so
// stdout stays empty; every command's happy path exits 0.
//
// The CLI binary's path arrives via SSMWN_CLI_BIN (set by CMake from
// $<TARGET_FILE:ssmwn_cli>); the tests skip when it is absent so the
// bare test binary still runs standalone.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Result {
  int code = -1;  // exit status; -1 if the child did not exit normally
  std::string out, err;
};

class CliContract : public testing::Test {
 protected:
  void SetUp() override {
    const char* bin = std::getenv("SSMWN_CLI_BIN");
    if (bin == nullptr) GTEST_SKIP() << "SSMWN_CLI_BIN not set (run via ctest)";
    bin_ = bin;
    dir_ = testing::TempDir() + "ssmwn_cli_" + std::to_string(::getpid());
    ::mkdir(dir_.c_str(), 0755);
    spec_ = dir_ + "/tiny.spec";
    std::ofstream(spec_) << "name = tiny\nn = 30\nradius = 0.3\nsteps = 4\n"
                            "replications = 2\n";
  }

  void TearDown() override {
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

  /// Starts `ssmwn args...` in the scratch directory with stdout and
  /// stderr sent to files there. A watchdog alarm bounds every child, so
  /// a command that wrongly starts working (or serving) cannot hang.
  pid_t spawn(const std::vector<std::string>& args,
              const std::string& out = "out.txt") {
    std::vector<std::string> stable = {bin_};
    stable.insert(stable.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& arg : stable) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      if (::chdir(dir_.c_str()) != 0) _exit(126);
      constexpr int kCreate = O_WRONLY | O_CREAT | O_TRUNC;
      const int out_fd = ::open(out.c_str(), kCreate, 0644);
      const int err_fd = ::open("err.txt", kCreate, 0644);
      if (out_fd < 0 || err_fd < 0) _exit(126);
      ::dup2(out_fd, STDOUT_FILENO);
      ::dup2(err_fd, STDERR_FILENO);
      ::alarm(120);
      ::execv(argv[0], argv.data());
      _exit(127);
    }
    return pid;
  }

  static int wait_exit(pid_t pid) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  Result run(const std::vector<std::string>& args) {
    Result result;
    result.code = wait_exit(spawn(args));
    result.out = slurp(dir_ + "/out.txt");
    result.err = slurp(dir_ + "/err.txt");
    return result;
  }

  /// Asserts the bad-arguments exit with nothing on stdout and a message
  /// naming `mentions`.
  void expect_rejected(const std::vector<std::string>& args,
                       const std::string& mentions) {
    const auto r = run(args);
    std::string line;
    for (const auto& arg : args) line += arg + " ";
    EXPECT_EQ(r.code, 2) << line << "\n" << r.err;
    EXPECT_EQ(r.out, "") << line;
    EXPECT_NE(r.err.find(mentions), std::string::npos) << line << "\n" << r.err;
  }

  std::string bin_, dir_, spec_;
};

TEST_F(CliContract, BareBoolDoesNotSwallowTheSpecPath) {
  const auto r = run({"campaign", "--quiet", spec_, "--csv", "out.csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_FALSE(slurp(dir_ + "/out.csv").empty());
}

TEST_F(CliContract, ExtraPositionalsExit2) {
  expect_rejected({"cluster", "--n", "30", "extra", "junk"}, "'extra'");
  expect_rejected({"campaign", spec_, spec_}, spec_);
  expect_rejected({"campaign", "--quiet"}, "<spec-file>");
}

TEST_F(CliContract, BadValuesExitBeforeAnyWork) {
  expect_rejected({"protocol", "--n", "30", "--radius", "0.3", "--steps", "5",
                   "--corrupt", "2"},
                  "--corrupt");
  expect_rejected({"protocol", "--n", "30", "--radius", "0.3", "--steps", "5",
                   "--corrupt", "2", "--scheduler", "async"},
                  "--corrupt");
  expect_rejected({"protocol", "--scheduler", "fast"}, "--scheduler");
  expect_rejected({"protocol", "--threads", "-1"}, "--threads");
  expect_rejected({"cluster", "--n"}, "--n");
  expect_rejected({"verify", "--trials", "0"}, "--trials");
  expect_rejected({"verify", "--steps", "5"}, "--steps");
}

TEST_F(CliContract, UnwritableOutputsExitBeforeAnyWork) {
  expect_rejected({"cluster", "--n", "30", "--dot", "/nonexistent/x.dot"},
                  "/nonexistent/x.dot");
  expect_rejected({"cluster", "--n", "30", "--csv", "/nonexistent/x.csv"},
                  "/nonexistent/x.csv");
  // An insufficient horizon that would fail, shrink, then write the repro.
  expect_rejected({"verify", "--trials", "1", "--steps", "6", "--n-min", "100",
                   "--n-max", "120", "--repro", "/nonexistent/x.spec"},
                  "/nonexistent/x.spec");
}

TEST_F(CliContract, FlagsTheModeNeverReadsExit2) {
  expect_rejected({"serve", "--seed", "9"}, "--seed");
  expect_rejected({"submit", spec_, "--port", "1", "--seed", "9"}, "--seed");
  expect_rejected({"protocol", "--n", "30", "--scheduler", "async",
                   "--threads", "4"},
                  "--threads");
  expect_rejected({"protocol", "--n", "30", "--daemon", "unfair"}, "--daemon");
  expect_rejected({"protocol", "--n", "30", "--topology", "rebuild"},
                  "--topology");
  expect_rejected({"protocol", "--n", "30", "--live", "--shards", "2"},
                  "--shards");
  expect_rejected({"protocol", "--n", "30", "--live", "--corrupt", "0.1"},
                  "--corrupt");
  expect_rejected({"cluster", "--n", "30", "--d", "3"}, "--d");
}

TEST_F(CliContract, UnknownFlagExit2) {
  expect_rejected({"cluster", "--bogus", "1"}, "--bogus");
  expect_rejected({"routing", "--grid=maybe"}, "--grid");
}

TEST_F(CliContract, NanFloatFlagsExit2) {
  expect_rejected({"protocol", "--n", "50", "--scheduler", "async",
                   "--period-jitter", "nan"},
                  "--period-jitter");
  expect_rejected({"protocol", "--n", "50", "--scheduler", "async",
                   "--link-delay", "nan"},
                  "--link-delay");
  expect_rejected({"protocol", "--n", "50", "--live", "--speed-min", "nan"},
                  "--speed-min");
  expect_rejected({"protocol", "--n", "50", "--live", "--speed-max", "nan"},
                  "--speed-max");
}

TEST_F(CliContract, NoCommandPrintsTheGeneratedUsage) {
  const auto r = run({});
  EXPECT_EQ(r.code, 2);
  for (const char* word : {"cluster", "protocol", "routing", "campaign",
                           "serve", "submit", "verify", "--checkpoint-every"}) {
    EXPECT_NE(r.out.find(word), std::string::npos) << word;
  }
}

TEST_F(CliContract, EveryCommandsHappyPathExits0) {
  const std::vector<std::vector<std::string>> runs = {
      {"cluster", "--n", "40", "--radius", "0.25", "--csv", "n.csv", "--dot",
       "g.dot"},
      {"cluster", "--n", "36", "--radius", "0.25", "--grid", "--map",
       "--metric", "max-min", "--d", "2"},
      {"protocol", "--n", "40", "--radius", "0.25", "--steps", "30",
       "--corrupt", "0.3", "--threads", "2"},
      {"protocol", "--n", "40", "--radius", "0.25", "--scheduler", "async",
       "--daemon", "unfair", "--corrupt", "0.3"},
      {"protocol", "--n", "40", "--radius", "0.25", "--live", "--windows", "2"},
      {"routing", "--n", "40", "--radius", "0.25", "--pairs", "20"},
      {"campaign", spec_, "--threads", "2", "--json", "c.json"},
      {"verify", "--trials", "1", "--n-max", "12", "--classes",
       "stale-cache"},
  };
  for (const auto& args : runs) {
    const auto r = run(args);
    EXPECT_EQ(r.code, 0) << args.front() << "\n" << r.err;
    EXPECT_FALSE(r.out.empty()) << args.front();
  }
}

// The protocol command's report, pinned byte for byte on one small world
// per engine and mode: sync with a fault, async under the unfair daemon,
// and live runs on both engines and both topology updates with dirty
// stepping. A refactor of the run code must leave every line as it is.
TEST_F(CliContract, ProtocolReportsArePinned) {
  const std::vector<std::string> world = {"protocol", "--n", "60", "--radius",
                                          "0.2", "--seed", "7"};
  struct Pin {
    std::vector<std::string> args;
    int code;
    const char* out;
  };
  const std::vector<Pin> pins = {
      {{"--steps", "40", "--dag", "--fusion", "--corrupt", "0.3"},
       0,
       "cold start: 156 head changes, quiescent since step 8\n"
       "corrupted 14 nodes: 70 head changes during recovery, quiescent "
       "since step 14\n"
       "final cluster-heads: 8\n"},
      {{"--steps", "60", "--tau", "0.8", "--corrupt", "0.3"},
       0,
       "cold start: 156 head changes, quiescent since step 7\n"
       "corrupted 14 nodes: 63 head changes during recovery, quiescent "
       "since step 20\n"
       "final cluster-heads: 8\n"},
      {{"--steps", "100", "--scheduler", "async", "--daemon", "unfair",
        "--corrupt", "0.3"},
       0,
       "scheduler=async daemon=unfair period=1s jitter=0.1 link_delay=0.02s\n"
       "cold start: converged at t=20.00s (virtual), 5221 messages to "
       "convergence, 11434 delivered this phase, 13496 events\n"
       "corrupted 19 nodes\n"
       "recovery: converged at t=223.00s (virtual), 46522 messages to "
       "convergence, 52740 delivered this phase, 75740 events\n"
       "final cluster-heads: 8\n"},
      {{"--steps", "40", "--live", "--topology", "rebuild", "--stepping",
        "dirty", "--windows", "4", "--speed-max", "10"},
       0,
       "live mode: sync engine, topology=rebuild, random-direction 0-10 m/s, "
       "4 windows of 2s\n"
       "cold start: converged at t=12.00s (virtual), 1777 messages\n"
       "window   1: +0/-0 edges, re-converged in 30.00s, 2620 messages\n"
       "window   2: +0/-0 edges, re-converged in 30.00s, 2289 messages\n"
       "window   3: +0/-0 edges, re-converged in 22.00s, 2198 messages\n"
       "window   4: +0/-0 edges, re-converged in 26.00s, 2596 messages\n"
       "re-converged 4/4 windows; mean 27.00s, mean 2426 messages per "
       "perturbation\n"
       "final cluster-heads: 7\n"
       "dirty stepping: 2070 rule sweeps run, 2430 elided\n"},
      {{"--steps", "40", "--live", "--scheduler", "async", "--topology",
        "incremental", "--mobility", "random-waypoint", "--stepping", "dirty",
        "--windows", "4", "--speed-max", "10"},
       0,
       "live mode: async engine, topology=incremental, random-waypoint 0-10 "
       "m/s, 4 windows of 2s\n"
       "cold start: converged at t=10.00s (virtual), 1636 messages\n"
       "window   1: +8/-6 edges, re-converged in 10.00s, 1661 messages\n"
       "window   2: +12/-6 edges, re-converged in 10.00s, 1694 messages\n"
       "window   3: +11/-3 edges, re-converged in 10.00s, 1776 messages\n"
       "window   4: +16/-4 edges, re-converged in 10.00s, 1883 messages\n"
       "re-converged 4/4 windows; mean 10.00s, mean 1754 messages per "
       "perturbation\n"
       "final cluster-heads: 5\n"
       "dirty stepping: 904 rule sweeps run, 1494 elided\n"},
  };
  for (const auto& pin : pins) {
    auto args = world;
    args.insert(args.end(), pin.args.begin(), pin.args.end());
    const auto r = run(args);
    std::string line;
    for (const auto& arg : pin.args) line += arg + " ";
    EXPECT_EQ(r.code, pin.code) << line << "\n" << r.err;
    EXPECT_EQ(r.out, pin.out) << line;
  }
}

// An async phase that runs out of horizon reports the horizon time and
// all the phase's messages, as the live report does — not a convergence
// time and message count it never had.
TEST_F(CliContract, AsyncPhaseThatDidNotConvergeReportsItsHorizon) {
  const auto r = run({"protocol", "--n", "60", "--radius", "0.2", "--steps",
                      "20", "--scheduler", "async", "--daemon", "unfair",
                      "--corrupt", "0.3", "--seed", "7"});
  EXPECT_EQ(r.code, 1) << r.err;
  EXPECT_EQ(r.out,
            "scheduler=async daemon=unfair period=1s jitter=0.1 "
            "link_delay=0.02s\n"
            "cold start: converged at t=20.00s (virtual), 5221 messages to "
            "convergence, 11434 delivered this phase, 13496 events\n"
            "corrupted 19 nodes\n"
            "recovery: NOT converged at t=204.00s (virtual), 41557 messages "
            "to convergence, 41557 delivered this phase, 62542 events\n"
            "final cluster-heads: 8\n");
}

TEST_F(CliContract, ServeAndSubmitExit0) {
  const pid_t daemon = spawn({"serve", "--port", "0", "--threads", "2"},
                             "serve.txt");
  std::string port;
  for (int i = 0; i < 100 && port.empty(); ++i) {
    const auto log = slurp(dir_ + "/serve.txt");
    const auto at = log.find("127.0.0.1:");
    if (at != std::string::npos && log.find(' ', at) != std::string::npos) {
      port = log.substr(at + 10, log.find(' ', at) - at - 10);
    } else {
      ::usleep(50'000);
    }
  }
  if (port.empty()) {
    ::kill(daemon, SIGKILL);
    (void)wait_exit(daemon);
    FAIL() << "daemon never reported its port";
  }
  const auto r = run({"submit", spec_, "--port", port});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_FALSE(r.out.empty());
  ::kill(daemon, SIGTERM);
  EXPECT_EQ(wait_exit(daemon), 0);
  EXPECT_NE(slurp(dir_ + "/serve.txt").find("drained, exiting"),
            std::string::npos);
}

}  // namespace
