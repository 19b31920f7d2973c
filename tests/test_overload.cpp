// Deterministic unit tests for the overload-hardening primitives: the
// hysteresis detector behind the degradation ladder (driven with injected
// queue depths and tick latencies — no wall-clock sleeps anywhere), the
// seed-driven fault-injection layer, and crash-consistent file
// replacement.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/overload.h"
#include "util/atomic_file.h"
#include "util/fault.h"

namespace {

using fuse::serve::OverloadConfig;
using fuse::serve::OverloadDetector;
using fuse::serve::OverloadLevel;
using fuse::util::FaultConfig;
using fuse::util::FaultPoint;
using fuse::util::ScopedFaults;

/// The canonical test config: queue-depth signal only (tick_high_s = 0),
/// 3 passes to engage a rung, 4 clear passes to release the first rung
/// and 1 per further rung, hysteresis band at half the high-water mark.
OverloadConfig test_config() {
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.queue_high_water = 10;
  cfg.tick_high_s = 0.0;
  cfg.engage_passes = 3;
  cfg.release_passes = 4;
  cfg.release_step_passes = 1;
  cfg.release_fraction = 0.5;
  return cfg;
}

// ------------------------------------------------------ ladder climbing --

TEST(Overload, DisabledDetectorNeverLeavesNormal) {
  OverloadConfig cfg = test_config();
  cfg.enabled = false;
  OverloadDetector d(cfg);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(d.update(1000, 10.0), OverloadLevel::kNormal);
  EXPECT_EQ(d.transitions(), 0u);
}

TEST(Overload, EngagesFirstRungAfterExactlyEngagePasses) {
  OverloadDetector d(test_config());
  // Two pressure passes: still normal (hysteresis against bursts).
  EXPECT_EQ(d.update(10, 0.0), OverloadLevel::kNormal);
  EXPECT_EQ(d.update(10, 0.0), OverloadLevel::kNormal);
  // The third consecutive pressure pass climbs rung 1.
  EXPECT_EQ(d.update(10, 0.0), OverloadLevel::kPauseAdapt);
  EXPECT_EQ(d.transitions(), 1u);
}

TEST(Overload, ClimbsOneRungAtATimeUpToShed) {
  OverloadDetector d(test_config());
  std::vector<OverloadLevel> seen;
  for (int i = 0; i < 12; ++i) seen.push_back(d.update(50, 0.0));
  // 3 passes per rung: normal x2, rung1 x3, rung2 (terminal).
  EXPECT_EQ(seen[1], OverloadLevel::kNormal);
  EXPECT_EQ(seen[2], OverloadLevel::kPauseAdapt);
  EXPECT_EQ(seen[4], OverloadLevel::kPauseAdapt);
  EXPECT_EQ(seen[5], OverloadLevel::kShedDeadline);
  // The top rung holds; there is nothing above it.
  EXPECT_EQ(seen[11], OverloadLevel::kShedDeadline);
  EXPECT_EQ(d.transitions(), 2u);
}

TEST(Overload, BurstShorterThanEngagePassesNeverEngages) {
  OverloadDetector d(test_config());
  for (int burst = 0; burst < 20; ++burst) {
    EXPECT_EQ(d.update(100, 0.0), OverloadLevel::kNormal);
    EXPECT_EQ(d.update(100, 0.0), OverloadLevel::kNormal);
    EXPECT_EQ(d.update(0, 0.0), OverloadLevel::kNormal);  // streak resets
  }
  EXPECT_EQ(d.transitions(), 0u);
}

// ----------------------------------------------------- ladder releasing --

TEST(Overload, ReleasesFirstRungAfterReleasePassesThenStepsDownFaster) {
  OverloadDetector d(test_config());
  for (int i = 0; i < 6; ++i) d.update(50, 0.0);  // climb to rung 2
  ASSERT_EQ(d.level(), OverloadLevel::kShedDeadline);
  // Clear signal (below high_water * release_fraction = 5): the first
  // release needs release_passes = 4 clear passes...
  EXPECT_EQ(d.update(0, 0.0), OverloadLevel::kShedDeadline);
  EXPECT_EQ(d.update(0, 0.0), OverloadLevel::kShedDeadline);
  EXPECT_EQ(d.update(0, 0.0), OverloadLevel::kShedDeadline);
  EXPECT_EQ(d.update(0, 0.0), OverloadLevel::kPauseAdapt);
  // ...then release_step_passes = 1 per further rung, so full recovery
  // lands within one detector window of the load dropping.
  EXPECT_EQ(d.update(0, 0.0), OverloadLevel::kNormal);
  EXPECT_EQ(d.transitions(), 4u);
}

TEST(Overload, HysteresisBandHoldsLevel) {
  OverloadDetector d(test_config());
  for (int i = 0; i < 3; ++i) d.update(10, 0.0);
  ASSERT_EQ(d.level(), OverloadLevel::kPauseAdapt);
  // Depth 7 is below the high water (10) but above the release band (5):
  // neither pressure nor clear — the ladder must hold indefinitely.
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(d.update(7, 0.0), OverloadLevel::kPauseAdapt);
  EXPECT_EQ(d.transitions(), 1u);
}

TEST(Overload, PressureDuringReleaseResetsTheClearStreak) {
  OverloadDetector d(test_config());
  for (int i = 0; i < 3; ++i) d.update(10, 0.0);
  ASSERT_EQ(d.level(), OverloadLevel::kPauseAdapt);
  d.update(0, 0.0);
  d.update(0, 0.0);
  d.update(0, 0.0);                          // 3 of 4 clear passes...
  d.update(20, 0.0);                         // ...pressure: streak resets
  for (int i = 0; i < 3; ++i) EXPECT_EQ(d.update(0, 0.0),
                                        OverloadLevel::kPauseAdapt);
  EXPECT_EQ(d.update(0, 0.0), OverloadLevel::kNormal);  // full 4 again
}

// ------------------------------------------------- tick-latency signal --

TEST(Overload, TickLatencyEwmaEngagesWithoutQueuePressure) {
  OverloadConfig cfg = test_config();
  cfg.tick_high_s = 0.010;
  cfg.tick_ewma_alpha = 1.0;  // no smoothing: the signal IS the sample
  OverloadDetector d(cfg);
  // Queue stays empty; injected 20 ms ticks alone must climb the ladder.
  EXPECT_EQ(d.update(0, 0.020), OverloadLevel::kNormal);
  EXPECT_EQ(d.update(0, 0.020), OverloadLevel::kNormal);
  EXPECT_EQ(d.update(0, 0.020), OverloadLevel::kPauseAdapt);
  // Fast ticks below the release band (5 ms) walk it back down.
  for (int i = 0; i < 3; ++i) d.update(0, 0.001);
  EXPECT_EQ(d.update(0, 0.001), OverloadLevel::kNormal);
}

TEST(Overload, EwmaSmoothsSingleSpike) {
  OverloadConfig cfg = test_config();
  cfg.tick_high_s = 0.010;
  cfg.tick_ewma_alpha = 0.2;
  OverloadDetector d(cfg);
  d.update(0, 0.001);  // seed the EWMA low
  // One 40 ms outlier moves the EWMA to ~8.8 ms, still under the 10 ms
  // threshold — no pressure registered, exactly the point of smoothing
  // the tick signal.
  d.update(0, 0.040);
  EXPECT_LT(d.tick_ewma(), cfg.tick_high_s);
  EXPECT_EQ(d.level(), OverloadLevel::kNormal);
}

TEST(Overload, LevelNamesAreStable) {
  EXPECT_STREQ(fuse::serve::overload_level_name(OverloadLevel::kNormal),
               "normal");
  EXPECT_STREQ(fuse::serve::overload_level_name(OverloadLevel::kPauseAdapt),
               "pause_adapt");
  EXPECT_STREQ(fuse::serve::overload_level_name(OverloadLevel::kShedDeadline),
               "shed_deadline");
}

// -------------------------------------------------------- fault layer --

TEST(Fault, DisarmedLayerNeverFires) {
  fuse::util::fault_reset();
  for (int i = 0; i < 1000; ++i)
    EXPECT_FALSE(fuse::util::fault_fire(FaultPoint::kDiskWrite));
  EXPECT_EQ(fuse::util::fault_fired(FaultPoint::kDiskWrite), 0u);
}

TEST(Fault, FiringIsDeterministicPerSeedAndOccurrenceIndex) {
  constexpr int kTrials = 2000;
  const auto run = [&](std::uint64_t seed) {
    FaultConfig cfg;
    cfg.seed = seed;
    cfg.p(FaultPoint::kDiskWrite) = 0.25;
    ScopedFaults faults(cfg);
    std::vector<bool> fires;
    fires.reserve(kTrials);
    for (int i = 0; i < kTrials; ++i)
      fires.push_back(fuse::util::fault_fire(FaultPoint::kDiskWrite));
    return fires;
  };
  const auto a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a, b) << "same seed must reproduce the exact firing pattern";
  EXPECT_NE(a, c) << "different seeds must differ";
}

TEST(Fault, FiringRateTracksProbability) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.p(FaultPoint::kCorruptCloud) = 0.10;
  ScopedFaults faults(cfg);
  for (int i = 0; i < 10000; ++i)
    fuse::util::fault_fire(FaultPoint::kCorruptCloud);
  const auto fired = fuse::util::fault_fired(FaultPoint::kCorruptCloud);
  EXPECT_EQ(fuse::util::fault_occurrences(FaultPoint::kCorruptCloud), 10000u);
  // 10000 Bernoulli(0.1) trials: mean 1000, sd ~30; +-6 sd cannot flake.
  EXPECT_GT(fired, 800u);
  EXPECT_LT(fired, 1200u);
}

TEST(Fault, PointsDrawIndependentStreams) {
  FaultConfig cfg;
  cfg.seed = 9;
  cfg.p(FaultPoint::kDiskWrite) = 0.5;
  cfg.p(FaultPoint::kDiskRead) = 0.5;
  ScopedFaults faults(cfg);
  std::vector<bool> w, r;
  for (int i = 0; i < 256; ++i) {
    w.push_back(fuse::util::fault_fire(FaultPoint::kDiskWrite));
    r.push_back(fuse::util::fault_fire(FaultPoint::kDiskRead));
  }
  EXPECT_NE(w, r) << "per-point streams must decorrelate";
}

TEST(Fault, ThreadedFiringCountIsSeedDeterministic) {
  // The decision is a pure function of the occurrence index, so 1000
  // occurrences fire the same TOTAL regardless of which thread consumed
  // which index.
  const auto fired_with_threads = [&](int threads) {
    FaultConfig cfg;
    cfg.seed = 1234;
    cfg.p(FaultPoint::kLatencySpike) = 0.3;
    ScopedFaults faults(cfg);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
      pool.emplace_back([&] {
        for (int i = 0; i < 1000 / threads; ++i)
          fuse::util::fault_fire(FaultPoint::kLatencySpike);
      });
    for (auto& th : pool) th.join();
    return fuse::util::fault_fired(FaultPoint::kLatencySpike);
  };
  EXPECT_EQ(fired_with_threads(1), fired_with_threads(4));
}

// ------------------------------------------------- atomic file replace --

namespace fs = std::filesystem;

struct TempDir {
  std::string path;
  TempDir() {
    path = ::testing::TempDir() + "fuse_atomic_test";
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string read_all(const std::string& p) {
  std::ifstream is(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

TEST(AtomicFile, ReplacesContentAndLeavesNoTmp) {
  TempDir dir;
  const std::string p = dir.path + "/file.bin";
  fuse::util::write_file_atomic(p, std::string("first"));
  fuse::util::write_file_atomic(p, std::string("second"));
  EXPECT_EQ(read_all(p), "second");
  EXPECT_FALSE(fs::exists(p + ".tmp"));
}

TEST(AtomicFile, InjectedDiskFaultLeavesDestinationUntouched) {
  TempDir dir;
  const std::string p = dir.path + "/file.bin";
  fuse::util::write_file_atomic(p, std::string("survivor"));
  FaultConfig cfg;
  cfg.p(FaultPoint::kDiskWrite) = 1.0;
  {
    ScopedFaults faults(cfg);
    EXPECT_THROW(fuse::util::write_file_atomic(p, std::string("doomed")),
                 std::runtime_error);
  }
  EXPECT_EQ(read_all(p), "survivor") << "a failed write must not corrupt "
                                        "the previous content";
}

TEST(AtomicFile, InjectedTornWritePersistsOnlyAPrefix) {
  TempDir dir;
  const std::string p = dir.path + "/file.bin";
  FaultConfig cfg;
  cfg.p(FaultPoint::kTornWrite) = 1.0;
  {
    ScopedFaults faults(cfg);
    fuse::util::write_file_atomic(p, std::string("0123456789"));
  }
  EXPECT_EQ(read_all(p), "01234") << "a torn write persists half the bytes";
}

}  // namespace
