#pragma once
// One streaming serving session: a bounded input queue with an explicit
// drop policy on the producer side, and the per-subject streaming state
// (fusion window, pose tracker, optional per-user fine-tuned head) on the
// scheduler side.
//
// Thread contract: producer-facing methods (enqueue, take_results, the
// queue counters) are mutex-protected and may be called from any thread;
// everything in the "scheduler side" section is only ever touched by the
// single scheduler thread, so it needs no locking.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/tracking.h"
#include "human/skeleton.h"
#include "nn/module.h"
#include "radar/point_cloud.h"
#include "radar/simulator.h"
#include "serve/stats.h"

namespace fuse::serve {

using SessionId = std::size_t;

/// What to do when a frame arrives and the session's input queue is full.
enum class DropPolicy {
  /// Evict the oldest queued frame (keep the stream fresh — default for
  /// live monitoring, where a stale pose is worse than a skipped one).
  kDropOldest,
  /// Reject the incoming frame (keep history — for offline replay).
  kDropNewest,
};

/// Per-user online adaptation from the meta-initialization (Section 4.3 of
/// the paper, run incrementally at serving time on therapist-labeled
/// frames).  Only the head, the shared model's last layer, adapts: the
/// last-layer regime of Figure 4 / Table 2.
struct AdaptConfig {
  bool enabled = false;
  std::size_t min_samples = 16;      ///< labeled frames before round 1
  std::size_t buffer_capacity = 64;  ///< ring buffer of recent labeled frames
  std::size_t round_every = 8;       ///< fresh labeled frames between rounds
  std::size_t steps_per_round = 2;   ///< SGD steps per adaptation round
  float lr = 0.02f;                  ///< MAML inner rate (MetaConfig::alpha)
  float grad_clip = 10.0f;
};

/// Per-session serving settings.  Compute is not one of them: every frame
/// of a pass shares one trunk batch, then goes through its session's
/// adapted head or the shared one.
struct SessionConfig {
  std::size_t queue_capacity = 16;
  DropPolicy drop_policy = DropPolicy::kDropOldest;
  std::size_t results_capacity = 1024;  ///< unpolled results kept
  bool tracking = true;
  fuse::core::TrackerConfig tracker;
  AdaptConfig adapt;
  /// Quarantine threshold: after this many rejected non-finite inputs
  /// (frames + labels) the session is served from the shared meta-init
  /// with adaptation disabled, so a sensor streaming garbage can never
  /// poison its per-user head or the shared micro-batch.  A non-finite
  /// adaptation loss quarantines immediately.  0 disables quarantine.
  std::size_t quarantine_after = 16;
};

/// One pose result fanned back to a session after a batched forward pass.
struct PoseResult {
  std::uint64_t seq = 0;      ///< per-session frame sequence number
  fuse::human::Pose raw;      ///< CNN estimate
  fuse::human::Pose tracked;  ///< after temporal filtering (== raw when off)
  double latency_s = 0.0;     ///< enqueue -> result, seconds
  double t_ready = 0.0;       ///< mono_seconds stamp at result delivery
                              ///< (feeds the result-poll stage telemetry)
  bool adapted_model = false; ///< predicted through the per-user head
};

class Session {
 public:
  Session(SessionId id, SessionConfig cfg) : id_(id), cfg_(std::move(cfg)) {
    tracker_ = fuse::core::PoseTracker(cfg_.tracker);
  }
  ~Session() {
    // Queued frames die with the session: release their admission slots.
    sub_in_flight(queue_.size());
  }

  SessionId id() const { return id_; }
  const SessionConfig& config() const { return cfg_; }

  /// Binds the server's queued-frame gauges: `global` is the admission
  /// gauge shared across every shard (ServeConfig::max_in_flight),
  /// `shard` the owning shard's local gauge that feeds its overload
  /// detector.  Every accepted frame increments both, every
  /// pop/clear/destruction decrements both, always under mu_ so the
  /// gauges track the queue exactly.  Either may be null (untracked).
  /// Bind before the first enqueue; the atomics must outlive the session.
  void bind_in_flight(std::atomic<std::size_t>* global,
                      std::atomic<std::size_t>* shard) {
    global_in_flight_ = global;
    shard_in_flight_ = shard;
  }

  // ------------------------------------------------------ producer side --
  struct InFrame {
    fuse::radar::PointCloud cloud;
    /// Raw-cube ingestion: when set, the scheduler runs the DSP front-end
    /// (cube -> point cloud) on its own thread at collection time and
    /// `cloud` above is ignored.
    std::unique_ptr<fuse::radar::RadarCube> cube;
    std::optional<fuse::human::Pose> label;  ///< ground truth, if supplied
    double t_enqueue = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t epoch = 0;  ///< recycle epoch at enqueue time
  };

  /// Enqueues a frame; applies the drop policy when the queue is full.
  /// Returns false iff the *incoming* frame was rejected (kDropNewest).
  bool enqueue(const fuse::radar::PointCloud& cloud,
               const fuse::human::Pose* label, double now_s);

  /// Enqueues a raw radar cube (same drop policy); the DSP front-end runs
  /// on the scheduler thread when the frame is collected.
  bool enqueue_cube(fuse::radar::RadarCube cube,
                    const fuse::human::Pose* label, double now_s);

  /// Moves out every finished result (FIFO).
  std::vector<PoseResult> take_results();

  std::size_t queue_depth() const;

  // ----------------------------------------------------- scheduler side --
  /// Pops the oldest queued frame, if any.  `recycled` is set when a
  /// recycle request is being consumed by this pop: the flag and the queue
  /// are read under one lock, so any popped frame enqueued after a recycle
  /// request is guaranteed to be preceded by `*recycled == true` (i.e. the
  /// caller resets the streaming state before the frame is processed).
  std::optional<InFrame> pop(bool* recycled);

  /// Slides the fusion window by one frame (bounded at 2M+1 entries).
  void advance_window(fuse::radar::PointCloud cloud,
                      std::size_t window_frames);
  const std::deque<fuse::radar::PointCloud>& window() const { return window_; }

  fuse::core::PoseTracker& tracker() { return tracker_; }

  /// Delivers one finished result (bounded; evicts oldest beyond capacity).
  /// `epoch` is the source frame's recycle epoch: results computed from
  /// frames of a recycled-away subject are silently discarded.
  void push_result(PoseResult r, std::uint64_t epoch);

  /// The head this session predicts with: its adapted clone of the shared
  /// head once online adaptation has run, else nullptr (= the shared head).
  const fuse::nn::Module* adapted_head() const { return adapted_.get(); }
  std::unique_ptr<fuse::nn::Module>& adapted_slot() { return adapted_; }

  /// Labeled-sample ring buffer feeding adaptation rounds.
  struct LabeledSample {
    std::vector<float> x;  ///< trunk activation (frozen: never stale)
    std::vector<float> y;  ///< normalized [57] label
  };
  const std::deque<LabeledSample>& adapt_buffer() const {
    return adapt_buffer_;
  }
  /// Appends a copy of one labeled sample, evicting the oldest once the
  /// buffer holds `buffer_capacity` samples.
  void buffer_labeled(std::span<const float> x, std::span<const float> y);

  /// Labeled samples buffered since the last adaptation round (gates the
  /// round cadence; scheduler-thread only).
  std::size_t fresh_labeled() const { return fresh_labeled_; }

  /// Records a finished adaptation round (for telemetry) and restarts the
  /// fresh-sample count.
  void note_adapt_round(float loss);

  /// Drops this session's adaptation in one step: the adapted head, the
  /// labeled-sample buffer, the fresh-sample count and their stats
  /// mirrors.  The session serves the shared head from here on.
  void drop_adaptation();

  /// Records that the clone store made this session's adapted head
  /// resident again (eviction or warm restart), so its stats read
  /// kAdapted even on a freshly restored Session that has never run a
  /// round in this process.
  void note_rehydrated();

  /// Recycle for a new subject (any thread): immediately clears the
  /// producer-side state (queue, results, sequence numbers, counters) and
  /// marks the scheduler-side state (fusion window, tracker, adaptation
  /// buffer, per-user head) for reset, which the scheduler applies at the
  /// start of its next pass — so recycling never races a running pass.
  /// The session id and configuration survive.  Results of frames already
  /// in flight when recycle is requested are discarded on delivery.
  void request_recycle();

  /// Scheduler side: clears the streaming state (fusion window, tracker,
  /// adaptation buffer, per-user head) after pop() reported a recycle.
  void reset_stream_state();

  /// Current recycle epoch (stale in-flight frames carry an older one).
  std::uint64_t current_epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recycle_epoch_;
  }

  /// Counter snapshot (locks the producer mutex).
  SessionStats stats_snapshot() const;

  // ------------------------------------------------- robustness (PR 8) --
  /// Producer side: the manager's admission gate refused this frame.
  void note_admission_rejected();
  /// Scheduler side: a queued frame went stale past the shed deadline and
  /// was dropped before the DSP/featurize/infer stages.
  void note_deadline_shed();
  /// A NaN/Inf input frame (cloud or DSP'd cube) was rejected; counts
  /// toward quarantine.  Returns true when this rejection newly
  /// quarantined the session.
  bool note_non_finite_frame();
  /// A NaN/Inf ground-truth label was rejected; counts toward quarantine.
  bool note_non_finite_label();
  /// An adaptation round produced a non-finite loss: quarantine NOW —
  /// the adapted head is compromised and must be discarded by the caller
  /// (drop_adaptation).
  void note_adapt_failed();
  /// Quarantined sessions serve from the shared meta-init with adaptation
  /// disabled (recycle lifts the quarantine with the rest of the state).
  bool quarantined() const {
    std::lock_guard<std::mutex> lock(mu_);
    return quarantined_;
  }

  // ---------------------------------------- cross-shard migration (PR 10) --
  /// While a session is mid-move the submit paths bounce new frames with
  /// SubmitResult::kMigrating instead of enqueueing onto a queue that is
  /// about to be drained.  Set/cleared by the migration driver only.
  void begin_migration() {
    std::lock_guard<std::mutex> lock(mu_);
    migrating_ = true;
  }
  void end_migration() {
    std::lock_guard<std::mutex> lock(mu_);
    migrating_ = false;
  }
  bool migrating() const {
    std::lock_guard<std::mutex> lock(mu_);
    return migrating_;
  }
  /// Producer side: a submit arrived mid-move and was bounced.
  void note_migration_rejected();

  /// Migration driver: empties the queue and releases the queued frames'
  /// gauge slots, returning the frames for replay on the target shard.
  /// Enqueue stamps (t_enqueue/seq/epoch) are preserved.
  std::deque<InFrame> drain_queue();
  /// Migration driver: re-enqueues previously drained frames at the FRONT
  /// of the queue (they predate anything submitted since), re-acquiring
  /// their gauge slots.  Capacity is not re-checked: the frames held slots
  /// moments ago and the queue was just drained.
  void requeue(std::deque<InFrame> frames);
  /// Migration driver: repoints the per-shard gauge at the target shard's,
  /// moving any currently queued frames' counts from the old gauge to the
  /// new.  The global admission gauge is unaffected.
  void rebind_shard_gauge(std::atomic<std::size_t>* shard);

 private:
  /// Shared enqueue tail: stamps the frame and applies the drop policy.
  bool enqueue_frame(InFrame f, double now_s);

  /// Ticks both bound gauges by +n / -n (callers hold mu_ or are the
  /// destructor).
  void add_in_flight(std::size_t n) {
    if (n == 0) return;
    if (global_in_flight_ != nullptr)
      global_in_flight_->fetch_add(n, std::memory_order_relaxed);
    if (shard_in_flight_ != nullptr)
      shard_in_flight_->fetch_add(n, std::memory_order_relaxed);
  }
  void sub_in_flight(std::size_t n) {
    if (n == 0) return;
    if (global_in_flight_ != nullptr)
      global_in_flight_->fetch_sub(n, std::memory_order_relaxed);
    if (shard_in_flight_ != nullptr)
      shard_in_flight_->fetch_sub(n, std::memory_order_relaxed);
  }

  const SessionId id_;
  const SessionConfig cfg_;

  mutable std::mutex mu_;  ///< guards queue_, results_ and the counters
  std::deque<InFrame> queue_;
  std::deque<PoseResult> results_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t frames_in_ = 0;
  std::uint64_t queue_evicted_ = 0;   ///< kDropOldest: oldest frame evicted
  std::uint64_t queue_rejected_ = 0;  ///< kDropNewest: incoming rejected
  std::uint64_t frames_out_ = 0;
  std::uint64_t results_dropped_ = 0;
  std::uint64_t results_stale_ = 0;   ///< discarded across a recycle epoch
  std::size_t queue_hwm_ = 0;         ///< deepest the queue has ever been
  std::uint64_t admission_rejected_ = 0;
  std::uint64_t deadline_shed_ = 0;
  std::uint64_t non_finite_frames_ = 0;
  std::uint64_t non_finite_labels_ = 0;
  std::uint64_t migration_rejected_ = 0;
  bool quarantined_ = false;
  bool migrating_ = false;
  /// Bound queued-frame gauges (see bind_in_flight): the server-global
  /// admission gauge and the owning shard's local gauge.
  std::atomic<std::size_t>* global_in_flight_ = nullptr;
  std::atomic<std::size_t>* shard_in_flight_ = nullptr;
  bool recycle_pending_ = false;
  std::uint64_t recycle_epoch_ = 0;  ///< bumped per recycle request
  // Mirrors of scheduler-side adaptation state, updated under mu_ so that
  // stats_snapshot() can be called from any thread.
  bool has_adapted_ = false;
  std::size_t adapt_buffered_ = 0;
  std::uint64_t adapt_rounds_ = 0;
  float last_adapt_loss_ = 0.0f;

  // Scheduler-thread-only state.
  std::deque<fuse::radar::PointCloud> window_;
  fuse::core::PoseTracker tracker_;
  std::unique_ptr<fuse::nn::Module> adapted_;
  std::deque<LabeledSample> adapt_buffer_;
  std::size_t fresh_labeled_ = 0;
};

}  // namespace fuse::serve
