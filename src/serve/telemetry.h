#pragma once
// Per-stage serving telemetry: one latency histogram per pipeline stage
// (queue-wait -> clone rehydrate -> cube DSP -> featurize -> batched infer
// -> adapt -> result-poll).  Batch counts and mean batch size are plain
// ServeStats counters; the infer stage's count is the batch count.
//
// Recording idiom (the DACStats pattern): raw counters and O(1) histogram
// increments on the hot path, every derived metric (quantiles, means)
// computed at read time in ServeStats snapshots — zero cost when nothing
// is recorded.
//
// Locking contract: each shard pass records into a PASS-LOCAL
// StageStats inside Shard::run_once (one pass at a time per shard, no
// locks), which the shard merges into its cumulative StageStats under its stats
// mutex once per pass.  Readers take the same mutex, so a snapshot is
// always pass-consistent: it never observes half of a pass.  Server's
// merged stats() folds the per-shard cumulative telemetries together at
// histogram level, so merged quantiles are exact.
//
// ServeConfig::detailed_stats = false turns every `if (detail)` recording
// site into one predictable branch, leaving only the always-on
// submit->poll histogram and the plain counters.

#include <array>
#include <cstddef>
#include <cstdint>

#include "serve/stats.h"

namespace fuse::serve {

/// The serving pipeline's stage taxonomy, in tick order.  Per-sample
/// stages record once per frame; kInfer and kAdapt record once per batch /
/// adaptation round (their counts are batch and round counts).
enum class Stage : std::size_t {
  kQueueWait = 0,  ///< submit -> collected by the scheduler (per frame)
  kRehydrate,      ///< evicted clone rebuilt base + delta (per rehydration)
  kDspCube,        ///< raw cube -> point cloud front-end (per cube frame)
  kFeaturize,      ///< window slide + featurization (per frame)
  kInfer,          ///< batched Module::infer forward (per batch)
  kAdapt,          ///< online-adaptation SGD round (per round)
  kResultPoll,     ///< result ready -> polled by the consumer (per result)
  kShed,           ///< frame shed by deadline; records its age at shedding
  kMigrate,        ///< cross-shard session move, drain -> rebind (per move)
};
inline constexpr std::size_t kNumStages = 9;

const char* stage_name(Stage s);

/// One latency histogram per pipeline stage.
class StageStats {
 public:
  void record(Stage s, double seconds) {
    hist_[static_cast<std::size_t>(s)].record(seconds);
  }
  void merge(const StageStats& other) {
    for (std::size_t i = 0; i < kNumStages; ++i) hist_[i].merge(other.hist_[i]);
  }
  const LatencyHistogram& histogram(Stage s) const {
    return hist_[static_cast<std::size_t>(s)];
  }

 private:
  std::array<LatencyHistogram, kNumStages> hist_{};
};

/// Derived read-time snapshot (quantiles in ms) for ServeStats.
StageSnapshot snapshot_stage(Stage s, const LatencyHistogram& h);

}  // namespace fuse::serve
