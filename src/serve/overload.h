#pragma once
// Overload detection and the graceful-degradation ladder.
//
// The serving plane's response to sustained overload is stepped, not
// binary: each rung sacrifices a little fidelity to win back a lot of
// throughput, and the ladder climbs one rung at a time so a transient
// burst never triggers the harsher rungs.
//
//   level 0  kNormal        full fidelity: online adaptation runs
//   level 1  kPauseAdapt    online-adaptation rounds are paused (the SGD
//                           rounds are the most expensive optional work in
//                           a tick)
//   level 2  kShedDeadline  queued frames older than shed_deadline_s are
//                           dropped at collection time, before the DSP /
//                           featurize / infer stages spend anything on
//                           them
//
// There is no cheaper-kernel rung: every frame already runs the fastest
// kernel the server has at any batch size (DESIGN.md §5).
//
// Detection is hysteresis-based on two signals fed once per scheduler
// pass: the total queued-frame depth across sessions, and an EWMA of the
// pass (tick) latency.  Pressure must persist for `engage_passes`
// consecutive passes to climb a rung; the signals must stay below the
// release fraction of their thresholds for `release_passes` consecutive
// passes to descend the first rung, and `release_step_passes` for each
// further rung — so recovery to full fidelity completes within roughly
// one release window after load drops, while a queue oscillating around
// the threshold cannot make the ladder flap.
//
// The detector is a pure state machine over injected measurements — it
// never reads a clock — so tests drive every rung deterministically with
// synthetic tick latencies and queue depths.

#include <cstddef>
#include <cstdint>

namespace fuse::serve {

enum class OverloadLevel : int {
  kNormal = 0,
  kPauseAdapt = 1,
  kShedDeadline = 2,
};
inline constexpr int kNumOverloadLevels = 3;

const char* overload_level_name(OverloadLevel l);

struct OverloadConfig {
  /// Master switch: disabled = the ladder never leaves kNormal and the
  /// detector costs nothing (the pre-PR behaviour).
  bool enabled = false;
  /// Total queued frames (across all sessions) that signals pressure.
  std::size_t queue_high_water = 64;
  /// Tick-latency EWMA above this signals pressure; 0 = queue-depth only.
  double tick_high_s = 0.0;
  /// EWMA smoothing factor in (0, 1]: ewma += alpha * (tick - ewma).
  double tick_ewma_alpha = 0.2;
  /// Consecutive pressure passes before climbing one rung.
  std::size_t engage_passes = 3;
  /// Consecutive clear passes before descending the first rung...
  std::size_t release_passes = 8;
  /// ...and per further rung, so full recovery is release_passes +
  /// (rungs - 1) * release_step_passes clear passes.
  std::size_t release_step_passes = 1;
  /// Signals clear pressure only below threshold * release_fraction (the
  /// hysteresis band; in between, the ladder holds its level).
  double release_fraction = 0.5;
  /// Rung-2 deadline applied to queued frames at collection time.
  double shed_deadline_s = 0.05;
};

class OverloadDetector {
 public:
  OverloadDetector() = default;
  explicit OverloadDetector(OverloadConfig cfg) : cfg_(cfg) {}

  /// Feeds one scheduler pass's measurements; returns the level the NEXT
  /// pass should run at.
  OverloadLevel update(std::size_t total_queue_depth, double tick_seconds);

  OverloadLevel level() const { return level_; }
  double tick_ewma() const { return ewma_; }
  /// Rung transitions (up or down) since construction.
  std::uint64_t transitions() const { return transitions_; }

 private:
  OverloadConfig cfg_;
  OverloadLevel level_ = OverloadLevel::kNormal;
  double ewma_ = 0.0;
  bool ewma_seeded_ = false;
  std::size_t pressure_streak_ = 0;
  std::size_t clear_streak_ = 0;
  bool descending_ = false;  ///< a rung was already released this episode
  std::uint64_t transitions_ = 0;
};

}  // namespace fuse::serve
