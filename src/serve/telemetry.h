#pragma once
// Per-stage serving telemetry: one latency histogram per pipeline stage
// (queue-wait -> clone rehydrate -> cube DSP -> featurize -> batched infer
// -> adapt -> result-poll) plus per-backend utilization of the batched
// forwards.
//
// Recording idiom (the DACStats pattern): raw counters and O(1) histogram
// increments on the hot path, every derived metric (quantiles, means,
// utilization ratios) computed at read time in ServeStats snapshots —
// zero cost when nothing is recorded.
//
// Locking contract: each shard's scheduler records into a PASS-LOCAL
// Telemetry inside run_once (one scheduler thread per shard, no locks),
// which the shard merges into its cumulative Telemetry under its stats
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

#include "nn/module.h"
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
  void reset() {
    for (auto& h : hist_) h.reset();
  }
  const LatencyHistogram& histogram(Stage s) const {
    return hist_[static_cast<std::size_t>(s)];
  }

 private:
  std::array<LatencyHistogram, kNumStages> hist_{};
};

/// Backends a server's batched forwards can run on (nn::Backend is a
/// closed enum: naive, gemm).
inline constexpr std::size_t kNumBackends = 2;

inline std::size_t backend_index(fuse::nn::Backend b) {
  return static_cast<std::size_t>(b);
}
fuse::nn::Backend backend_from_index(std::size_t i);

/// Utilization of one inference backend by the batched forwards.
struct BackendUse {
  std::uint64_t batches = 0;
  std::uint64_t frames = 0;
  LatencyHistogram infer;  ///< per-batch forward latency

  void merge(const BackendUse& other) {
    batches += other.batches;
    frames += other.frames;
    infer.merge(other.infer);
  }
};

/// The full detailed-telemetry registry; used both pass-local (scheduler,
/// lock-free) and cumulative (per shard, under its stats mutex).
struct Telemetry {
  StageStats stages;
  std::array<BackendUse, kNumBackends> backends{};

  void record_batch(fuse::nn::Backend b, std::size_t frames, double seconds) {
    auto& use = backends[backend_index(b)];
    ++use.batches;
    use.frames += frames;
    use.infer.record(seconds);
    stages.record(Stage::kInfer, seconds);
  }
  void merge(const Telemetry& other) {
    stages.merge(other.stages);
    for (std::size_t i = 0; i < kNumBackends; ++i)
      backends[i].merge(other.backends[i]);
  }
  void reset() {
    stages.reset();
    for (auto& b : backends) b = BackendUse{};
  }
};

/// Derived read-time snapshots (quantiles in ms) for ServeStats.
StageSnapshot snapshot_stage(Stage s, const LatencyHistogram& h);
BackendSnapshot snapshot_backend(fuse::nn::Backend b, const BackendUse& use);

}  // namespace fuse::serve
