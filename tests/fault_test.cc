#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "private_dir.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "status_matchers.h"
#include "util/crc32c.h"
#include "util/fault.h"
#include "util/serialize.h"

/// Fault-injection suite (the `fault` ctest label): drives the seeded
/// injector through every compiled-in site and asserts the robustness
/// contracts — injected I/O failures surface as Status (never UB or
/// hangs), EINTR storms are retried through, a mid-write crash never
/// damages the previously committed artifact, and the scheduler sheds
/// injected submit faults as overload. CI runs this binary under several
/// DIAL_FAULT_SEED values; everything here is deterministic per seed.

namespace dial {
namespace {

using util::FaultInjector;
using util::FaultSite;

std::string TempPath(const std::string& name) {
  return test_internal::PrivateDir() + "/" + name;
}

/// Every test leaves the process-global injector disarmed.
class FaultTest : public testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// ----------------------------------------------------------------- CRC32C

TEST_F(FaultTest, Crc32cKnownVector) {
  // The standard CRC32C check value.
  EXPECT_EQ(util::Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(util::Crc32c("", 0), 0u);
  EXPECT_NE(util::Crc32cImplName(), nullptr);
}

TEST_F(FaultTest, Crc32cIncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t one_shot = util::Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = util::Crc32cExtend(0, data.data(), split);
    crc = util::Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, one_shot) << "split at " << split;
  }
}

TEST_F(FaultTest, Crc32cDetectsEverySingleBitFlip) {
  std::string data = "payload under test, long enough to cross a word";
  const uint32_t clean = util::Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<char>(1 << bit);
      EXPECT_NE(util::Crc32c(data.data(), data.size()), clean)
          << "missed flip at byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<char>(1 << bit);
    }
  }
}

// ----------------------------------------------------- injector mechanics

TEST_F(FaultTest, SiteNamesRoundTrip) {
  for (size_t i = 0; i < util::kNumFaultSites; ++i) {
    const auto site = static_cast<FaultSite>(i);
    FaultSite parsed;
    ASSERT_TRUE(util::ParseFaultSite(util::FaultSiteName(site), &parsed))
        << util::FaultSiteName(site);
    EXPECT_EQ(parsed, site);
  }
  FaultSite unused;
  EXPECT_FALSE(util::ParseFaultSite("made_up_site", &unused));
}

TEST_F(FaultTest, ConfigureParsesAndRejectsSpecs) {
  FaultInjector& fi = FaultInjector::Global();
  DIAL_EXPECT_OK(fi.Configure(7, "file_write=0.25,socket_recv=1.0"));
  EXPECT_TRUE(FaultInjector::Armed());
  DIAL_EXPECT_OK(fi.Configure(7, "file_read=fail@3"));
  DIAL_EXPECT_OK(fi.Configure(7, "scheduler_submit=crash@10"));
  DIAL_EXPECT_OK(fi.Configure(7, ""));
  EXPECT_FALSE(FaultInjector::Armed());
  EXPECT_FALSE(fi.Configure(7, "bogus_site=0.5").ok());
  EXPECT_FALSE(fi.Configure(7, "file_write=1.5").ok());
  EXPECT_FALSE(fi.Configure(7, "file_write").ok());
  EXPECT_FALSE(fi.Configure(7, "file_write=fail@notanumber").ok());
}

TEST_F(FaultTest, FailNthInjectsExactlyOnce) {
  FaultInjector& fi = FaultInjector::Global();
  fi.FailNth(FaultSite::kFileWrite, 3);
  std::vector<bool> outcomes;
  for (int i = 0; i < 6; ++i) outcomes.push_back(fi.ShouldFail(FaultSite::kFileWrite));
  EXPECT_EQ(outcomes, (std::vector<bool>{false, false, true, false, false, false}));
  EXPECT_EQ(fi.calls(FaultSite::kFileWrite), 6u);
  EXPECT_EQ(fi.injected(FaultSite::kFileWrite), 1u);
}

TEST_F(FaultTest, ProbabilityIsDeterministicPerSeed) {
  FaultInjector& fi = FaultInjector::Global();
  const auto draw_pattern = [&fi](uint64_t seed) {
    fi.Reset();
    fi.SetSeed(seed);
    fi.SetProbability(FaultSite::kFileRead, 0.5);
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) pattern.push_back(fi.ShouldFail(FaultSite::kFileRead));
    return pattern;
  };
  const std::vector<bool> a = draw_pattern(42);
  const std::vector<bool> b = draw_pattern(42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, draw_pattern(43));  // astronomically unlikely to collide
}

TEST_F(FaultTest, ConsecutiveCapEndsProbabilityOneStorms) {
  FaultInjector& fi = FaultInjector::Global();
  fi.SetProbability(FaultSite::kSocketRecv, 1.0);
  // p=1.0 must not inject forever: the consecutive cap guarantees a retry
  // loop built on this site terminates.
  uint64_t consecutive = 0;
  while (fi.ShouldFail(FaultSite::kSocketRecv)) {
    ++consecutive;
    ASSERT_LT(consecutive, 100000u) << "storm never ended";
  }
  EXPECT_GE(consecutive, 100u);  // but it was a real storm first
}

// ----------------------------------------------------------- file I/O site

TEST_F(FaultTest, InjectedWriteFaultFailsSaveAndRemovesTemp) {
  const std::string path = TempPath("fault_ckpt_write.bin");
  core::AlCheckpoint ckpt;
  ckpt.dataset_name = "fault_probe";
  FaultInjector::Global().FailNth(FaultSite::kFileWrite, 5);
  const util::Status status = core::SaveAlCheckpoint(path, ckpt);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kIoError);
  // The failed save cleans its temp file and never creates the target.
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST_F(FaultTest, InjectedReadFaultFailsLoadCleanly) {
  const std::string path = TempPath("fault_ckpt_read.bin");
  core::AlCheckpoint ckpt;
  ckpt.dataset_name = "fault_probe";
  DIAL_ASSERT_OK(core::SaveAlCheckpoint(path, ckpt));
  FaultInjector::Global().FailNth(FaultSite::kFileRead, 1);
  core::AlCheckpoint loaded;
  const util::Status status = core::LoadAlCheckpoint(path, &loaded);
  EXPECT_FALSE(status.ok());
  // Disarmed, the same file loads — the failure was injected, not real.
  FaultInjector::Global().Reset();
  DIAL_EXPECT_OK(core::LoadAlCheckpoint(path, &loaded));
  std::remove(path.c_str());
}

TEST_F(FaultTest, MidWriteCrashKeepsPreviousCheckpointLoadable) {
  const std::string path = TempPath("fault_ckpt_crash.bin");
  core::AlCheckpoint committed;
  committed.dataset_name = "generation_one";
  committed.labels_used = 1;
  DIAL_ASSERT_OK(core::SaveAlCheckpoint(path, committed));

  // Kill a child at several depths into the replacement save — during the
  // header, mid-payload, and near the trailer — and require the committed
  // generation to survive every one. This is the replace-by-rename
  // contract under a hard crash (fsync file, rename, fsync dir).
  for (const uint64_t kill_at_write : {1u, 4u, 9u, 14u}) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      FaultInjector::Global().CrashNth(FaultSite::kFileWrite, kill_at_write);
      core::AlCheckpoint replacement;
      replacement.dataset_name = "generation_two";
      replacement.labels_used = 2;
      (void)core::SaveAlCheckpoint(path, replacement);
      ::_exit(0);  // reached only if the crash site never fired
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), FaultInjector::kCrashExitCode)
        << "child survived kill_at_write=" << kill_at_write;
    core::AlCheckpoint loaded;
    DIAL_ASSERT_OK(core::LoadAlCheckpoint(path, &loaded));
    EXPECT_EQ(loaded.dataset_name, "generation_one");
    EXPECT_EQ(loaded.labels_used, 1u);
  }
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ------------------------------------------------------------ socket sites

TEST_F(FaultTest, ReadRetrySurvivesInjectedEintrStorm) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  FaultInjector::Global().SetProbability(FaultSite::kSocketRecv, 1.0);
  char out = 0;
  EXPECT_EQ(serve::ReadRetry(fds[0], &out, 1), 1);  // storm, then the byte
  EXPECT_EQ(out, 'x');
  EXPECT_GE(FaultInjector::Global().injected(FaultSite::kSocketRecv), 100u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(FaultTest, SendAllSurvivesInjectedEintrStorm) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FaultInjector::Global().SetProbability(FaultSite::kSocketSend, 1.0);
  const std::string line = "{\"op\":\"stats\",\"id\":\"1\"}\n";
  EXPECT_TRUE(serve::SendAll(fds[0], line.data(), line.size()));
  FaultInjector::Global().Reset();
  std::string got(line.size(), '\0');
  size_t read_total = 0;
  while (read_total < line.size()) {
    const ssize_t n =
        serve::ReadRetry(fds[1], got.data() + read_total, line.size() - read_total);
    ASSERT_GT(n, 0);
    read_total += static_cast<size_t>(n);
  }
  EXPECT_EQ(got, line);  // framing intact through the storm
  ::close(fds[0]);
  ::close(fds[1]);
}

// -------------------------------------------------------- scheduler site

TEST_F(FaultTest, InjectedSubmitFaultRejectsAsOverload) {
  serve::SchedulerOptions options;
  options.num_workers = 1;
  serve::Scheduler scheduler(
      options, [](size_t, std::vector<serve::Scheduler::Pending>&& batch) {
        for (auto& pending : batch) pending.callback(serve::ServeResponse{});
      });
  FaultInjector::Global().FailNth(FaultSite::kSchedulerSubmit, 1);
  bool callback_ran = false;
  EXPECT_FALSE(scheduler.Submit(serve::ServeRequest{},
                                [&](serve::ServeResponse) { callback_ran = true; }));
  EXPECT_FALSE(callback_ran);  // rejected submits never call back
  EXPECT_EQ(scheduler.stats().rejected, 1u);
  // The next (uninjected) submit goes through.
  FaultInjector::Global().Reset();
  EXPECT_TRUE(scheduler.Submit(serve::ServeRequest{},
                               [](serve::ServeResponse) {}));
  scheduler.Drain();
  EXPECT_EQ(scheduler.stats().requests_executed, 1u);
}

}  // namespace
}  // namespace dial
