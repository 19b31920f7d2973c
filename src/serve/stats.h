#pragma once
// Serving telemetry: latency histograms with quantile readout plus
// per-session and server-wide counter snapshots.
//
// The histogram uses fixed log-spaced bins (10 per decade, 1 us .. 100 s),
// so recording is O(1) and allocation-free on the scheduler hot path;
// quantiles are read out by linear interpolation inside the hit bin, which
// is plenty for p50/p95/p99 dashboards.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace fuse::serve {

/// Monotonic wall-clock seconds (arbitrary epoch) for latency stamping.
inline double mono_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class LatencyHistogram {
 public:
  LatencyHistogram() { reset(); }

  void record(double seconds);
  /// Folds another histogram into this one (scheduler passes record into a
  /// pass-local histogram, merged into the cumulative one under the stats
  /// lock — keeps the hot path lock-free).
  void merge(const LatencyHistogram& other);
  void reset();

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double max() const { return max_; }

  /// Latency quantile in seconds, q in [0, 1]; 0 when empty.  Bin 0 spans
  /// [0, 1e-6), the overflow bin [1e2, observed max]; interpolation inside
  /// a bin is clamped to the observed max, so an all-sub-microsecond
  /// histogram reports sub-microsecond quantiles instead of >= 1 us.
  double quantile(double q) const;

  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

 private:
  // 10 bins per decade over [1e-6 s, 1e2 s) plus an overflow bin.
  static constexpr std::size_t kBinsPerDecade = 10;
  static constexpr int kDecades = 8;
  static constexpr double kMinLatency = 1e-6;
  static constexpr std::size_t kBins = kBinsPerDecade * kDecades + 1;

  static std::size_t bin_index(double seconds);
  static double bin_lower(std::size_t bin);
  static double bin_upper(std::size_t bin);

  std::array<std::uint64_t, kBins> bins_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-capacity ring of per-tick queue-depth samples: each scheduler
/// pass records its shard's in-flight gauge, so the export shows depth
/// *over time* rather than only the high-water mark.  Capacity-bounded
/// so a days-long soak cannot grow it; once full the oldest sample is
/// overwritten.  Not thread-safe — callers record/merge under the shard
/// stats mutex like every other snapshot.
class QueueDepthSeries {
 public:
  static constexpr std::size_t kCapacity = 240;

  void record(std::size_t depth) {
    ring_[head_] = depth;
    head_ = (head_ + 1) % kCapacity;
    if (count_ < kCapacity) ++count_;
  }
  void reset() {
    head_ = 0;
    count_ = 0;
  }
  std::size_t size() const { return count_; }
  /// Samples oldest -> newest.
  std::vector<std::size_t> snapshot() const {
    std::vector<std::size_t> out;
    out.reserve(count_);
    const std::size_t start = (head_ + kCapacity - count_) % kCapacity;
    for (std::size_t i = 0; i < count_; ++i)
      out.push_back(ring_[(start + i) % kCapacity]);
    return out;
  }

 private:
  std::array<std::size_t, kCapacity> ring_{};
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Per-user online-adaptation lifecycle of a session.
enum class AdaptState {
  kShared,      ///< adaptation disabled; serves the shared meta-model
  kCollecting,  ///< enabled, still buffering labeled frames
  kAdapted,     ///< at least one adaptation round ran; serves its own clone
};

const char* adapt_state_name(AdaptState s);

struct SessionStats {
  std::size_t id = 0;
  std::uint64_t frames_in = 0;       ///< accepted into the queue
  std::uint64_t frames_dropped = 0;  ///< rejected/evicted by the drop policy
  std::uint64_t queue_evicted = 0;   ///< dropped cause: kDropOldest eviction
  std::uint64_t queue_rejected = 0;  ///< dropped cause: kDropNewest rejection
  std::uint64_t frames_out = 0;      ///< results produced
  std::uint64_t results_dropped = 0; ///< results evicted before being polled
  std::uint64_t results_stale = 0;   ///< results discarded across a recycle
  std::size_t queue_depth = 0;       ///< at snapshot time
  std::size_t queue_depth_hwm = 0;   ///< high-water mark since open/recycle
  AdaptState adapt_state = AdaptState::kShared;
  std::uint64_t adapt_rounds = 0;    ///< SGD rounds run on the clone
  std::size_t adapt_buffered = 0;    ///< labeled samples currently buffered
  float last_adapt_loss = 0.0f;      ///< batch L1 loss of the last round

  // Robustness counters (PR 8): why frames never reached inference, and
  // whether the session has been quarantined for submitting poison.
  std::uint64_t admission_rejected = 0;  ///< global in-flight budget full
  std::uint64_t deadline_shed = 0;       ///< stale frame shed pre-DSP/infer
  std::uint64_t non_finite_frames = 0;   ///< NaN/Inf input frames rejected
  std::uint64_t non_finite_labels = 0;   ///< NaN/Inf labels rejected
  std::uint64_t migration_rejected = 0;  ///< submits bounced mid-migration
  bool quarantined = false;  ///< served from shared meta-init, no adaptation
};

/// Read-time view of one pipeline stage's latency histogram (derived
/// quantiles computed at snapshot time, never on the hot path).
struct StageSnapshot {
  std::string stage;          ///< taxonomy name (telemetry.h)
  std::uint64_t count = 0;    ///< recorded samples (frames / batches / rounds)
  double total_ms = 0.0;      ///< summed stage time
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Read-time snapshot of the clone store (serve/clone_store): lifecycle
/// counters plus occupancy gauges (resident clones under the
/// max_resident_clones cap, their RAM, checkpoint bytes on disk).
/// All-zero with enabled=false when no store is configured.
struct CloneStoreSnapshot {
  bool enabled = false;
  std::uint64_t hits = 0;        ///< lookups that found the clone resident
  std::uint64_t misses = 0;      ///< lookups that found it evicted
  std::uint64_t evictions = 0;   ///< clones checkpointed + dropped from RAM
  std::uint64_t rehydrations = 0;       ///< clones reloaded from checkpoints
  std::uint64_t checkpoint_writes = 0;  ///< head checkpoint files written
  std::size_t tracked = 0;        ///< sessions with a clone (any state)
  std::size_t resident = 0;       ///< clones currently in RAM
  std::size_t resident_bytes = 0; ///< their params+grads RAM
  std::size_t disk_bytes = 0;     ///< bytes of head checkpoints on disk
  // Fault-recovery counters (PR 8): corrupt/partial state detected and
  // survived instead of propagated.
  std::uint64_t restore_skipped = 0;      ///< corrupt entries skipped at restore
  std::uint64_t rehydrate_failures = 0;   ///< corrupt checkpoint at rehydration
  std::uint64_t checkpoint_failures = 0;  ///< failed checkpoint writes
};

/// Read-time per-shard summary row: each scheduler shard's share of the
/// fleet, its own queue gauge and overload rung, and its local latency
/// p99 (the merged quantiles come from histogram-level merging, so they
/// are exact, not averages of these).
struct ShardStatsRow {
  std::size_t shard = 0;      ///< shard index (home hash + migration map)
  std::size_t sessions = 0;   ///< sessions owned by this shard
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::size_t in_flight = 0;  ///< this shard's queued frames
  std::uint64_t batches = 0;  ///< batched forward passes on this shard
  int overload_level = 0;     ///< this shard's ladder rung
  std::uint64_t overload_transitions = 0;
  double latency_p99_ms = 0.0;
  // Live cross-shard migration traffic through this shard.
  std::uint64_t migrations_in = 0;   ///< sessions adopted from other shards
  std::uint64_t migrations_out = 0;  ///< sessions moved away
  std::uint64_t migration_failures = 0;  ///< moves rolled back on this source
  /// Per-tick queue-depth samples, oldest -> newest (bounded ring).
  std::vector<std::size_t> queue_depth_series;
};

struct ServeStats {
  std::size_t sessions = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t batches = 0;          ///< batched forward passes
  double mean_batch = 0.0;            ///< frames per forward pass
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
  double latency_max_ms = 0.0;

  // Drop/evict counters split by cause (frames_dropped above stays their
  // queue-side sum, for compatibility with the pre-telemetry field).
  std::uint64_t queue_evicted = 0;    ///< kDropOldest evictions
  std::uint64_t queue_rejected = 0;   ///< kDropNewest rejections
  std::uint64_t results_evicted = 0;  ///< results evicted before polling
  std::uint64_t results_stale = 0;    ///< results discarded across a recycle
  /// Queue drops / frames offered (accepted + rejected); 0 when no traffic.
  double drop_rate = 0.0;
  std::size_t queue_depth_hwm = 0;    ///< deepest queue ever, any session

  // Overload hardening (PR 8): admission control, deadline shedding and
  // the degradation ladder.
  std::uint64_t admission_rejected = 0;  ///< frames refused at the door
  std::uint64_t deadline_shed = 0;       ///< stale frames shed pre-DSP/infer
  std::uint64_t non_finite_frames = 0;   ///< NaN/Inf input frames rejected
  std::uint64_t non_finite_labels = 0;   ///< NaN/Inf labels rejected
  std::size_t quarantined_sessions = 0;  ///< sessions serving quarantined
  // Live cross-shard migration (PR 10): completed moves, rolled-back
  // moves, and submits bounced with SubmitResult::kMigrating mid-move.
  std::uint64_t migrations = 0;
  std::uint64_t migration_failures = 0;
  std::uint64_t migration_rejected = 0;
  /// Deadline sheds / frames offered (accepted + rejected); distinct from
  /// drop_rate (producer-side queue policy) — this is scheduler-side.
  double shed_rate = 0.0;
  std::size_t in_flight = 0;          ///< queued frames, all sessions
  /// Merged view: the MAX ladder rung across shards (a hot shard must
  /// surface even when its neighbours are idle); per-shard rungs are in
  /// per_shard.  transitions is the sum across shards.
  int overload_level = 0;             ///< current ladder rung (0 = normal)
  std::string overload_level_name = "normal";
  std::uint64_t overload_transitions = 0;  ///< rung changes since start

  // Sharded serving plane: how many scheduler shards this snapshot spans
  // (Server::stats() reports num_shards) and one summary row per shard.
  std::size_t shards = 1;
  std::vector<ShardStatsRow> per_shard;

  /// Whether the per-stage layer was enabled for this run
  /// (ServeConfig::detailed_stats); stage rows are all-zero otherwise.
  bool detailed = false;
  std::vector<StageSnapshot> stages;  ///< one row per pipeline stage
  CloneStoreSnapshot clone_store;     ///< adapted-clone lifecycle
  std::vector<SessionStats> per_session;
};

/// Serializes the whole snapshot as structured JSON (stable schema,
/// documented in DESIGN.md §7) — the payload behind
/// Server::stats_json() and the bench's SERVE_stats.json artifact.
std::string stats_to_json(const ServeStats& s);

/// Writes one `stages[]` row (of stats_to_json and BENCH_serve.json).
void stage_to_json(util::JsonWriter& w, const StageSnapshot& st);

}  // namespace fuse::serve
