#pragma once
// Shard — one scheduler shard of the serving plane (internal engine
// behind serve::Server; not part of the public API).
//
// A shard owns its slice of the session map, one private FrameWorkspace
// and featurize scratch, one clone-store instance, one OverloadDetector,
// and — in threaded mode — one scheduler thread with its own wake
// condition variable.  serve::Server places sessions across N of these
// (home hash + migration overrides); with N == 1 the engine is
// bit-compatible with the pre-shard scheduler (the equivalence oracle).
//
// A pass (run_once) is the micro-batcher (DESIGN.md §2):
//  * collect — pop at most one frame per session, round-robin, repeated
//    until `max_batch` frames are gathered or every queue is empty, so
//    deep queues cannot starve their neighbours.  Each frame runs the DSP
//    front-end (raw cubes), slides its session's fusion window and is
//    featurized once, in its session's FIFO order, into the pass's
//    contiguous batch rows;
//  * infer — the frozen trunk runs once over every collected frame as
//    one batch, then each frame's row goes through its session's head;
//  * fan out — each pose goes through its session's tracker to its
//    result queue;
//  * adapt — labeled trunk rows join their session's buffer, then at
//    most one round per eligible session (core::sgd_step on its head),
//    then the clone store's LRU budget.
// Outputs are bit-identical to the batch-1 single-session path however
// frames interleave across sessions (GEMM rows are batch-invariant).
//
// Execution: run_once() is the one per-pass path in both serving modes.
// It holds an InlineScope (util/thread_pool.h) for the whole pass, so
// every kernel runs on the thread that called it — the shard's own thread,
// perfbench's server thread (a pool worker) or a test's main thread alike.
// A shard is one core's worth of work; more shards, not wider frames, use
// more cores.
//
// Gauge contract (see server.h): every accepted frame ticks TWO gauges —
// the server-global admission gauge (bounds total queued frames for
// max_in_flight) and this shard's local gauge, which is what feeds the
// shard's overload detector, so a hot shard engages its degradation
// ladder regardless of how idle the other shards are.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/predictor.h"
#include "nn/module.h"
#include "nn/sequential.h"
#include "radar/processing.h"
#include "serve/clone_store/clone_store.h"
#include "serve/overload.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/stats.h"
#include "serve/telemetry.h"

namespace fuse::serve {

/// Raw per-shard stats surface: this shard's finished summary row plus
/// what Server needs to merge the fleet-wide ServeStats.  Histograms are
/// carried whole (not as quantiles) so the merged quantiles are exact.
struct ShardRawStats {
  ShardStatsRow row;
  std::vector<SessionStats> sessions;  ///< sorted by id
  LatencyHistogram latency;
  StageStats telem;
  std::uint64_t batched_frames = 0;
  CloneStoreSnapshot clone_store;
};

class Shard {
 public:
  /// `cfg` is the server-wide config; every shard's clone store uses its
  /// one flat directory.  `global_in_flight` is the server's
  /// admission gauge (borrowed; outlives the shard).
  /// `shared_model`'s last child is the shared head (Server checks it).
  Shard(const fuse::core::Predictor* predictor,
        const fuse::nn::Sequential* shared_model, const ServeConfig& cfg,
        std::size_t index, std::atomic<std::size_t>* global_in_flight);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // ------------------------------------------------------------ sessions --
  /// Ids are allocated by the Server (which owns the max_sessions cap).
  void open_session(SessionId id, SessionConfig scfg);
  void close_session(SessionId id);
  void recycle_session(SessionId id);
  std::size_t session_count() const;

  // ------------------------------------------------------------- frames --
  SubmitResult submit_frame(SessionId id, const fuse::radar::PointCloud& cloud,
                            const fuse::human::Pose* label);
  /// Moves from `cube` only once the session is found, so a caller may
  /// retry a kUnknownSession answer on another shard with the same cube.
  SubmitResult submit_cube(SessionId id, fuse::radar::RadarCube&& cube,
                           const fuse::human::Pose* label);
  std::vector<PoseResult> poll_results(SessionId id);

  // ------------------------------------------------- scheduling / thread --
  /// One scheduler pass.  A pass with nothing to do (no queued frame, no
  /// queued clone-store forget, no pending recycle) returns without
  /// touching the sessions; it still feeds the overload detector and
  /// records one queue-depth sample.
  std::size_t run_once();
  std::size_t drain();
  void start();
  void stop();
  bool running() const { return running_; }

  // -------------------------------------------------------- warm restart --
  void persist_clones();
  /// Registers `ids` (checkpoints this shard's store validated) as
  /// evicted clones and opens their sessions with `scfg`.  Server checks
  /// that no shard runs, and placement, open ids and max_sessions, first.
  void restore_clones(const std::vector<SessionId>& ids,
                      const SessionConfig& scfg);

  // ----------------------------------------------------------- telemetry --
  ShardRawStats raw_stats() const;

  // -------------------------------------- cross-shard migration (PR 10) --
  // Primitives the Server's migration driver composes.  All of them are
  // only safe while the caller holds BOTH involved shards' pass locks (or
  // no scheduler threads run): they touch scheduler-owned state.
  /// Excludes this shard's scheduler pass: run_once holds this for the
  /// whole tick, so a holder observes no mid-pass state.  External callers
  /// (the migration driver) lock source and target ordered by index —
  /// shard threads only ever take their own, so the order cannot deadlock.
  std::unique_lock<std::mutex> lock_pass() {
    pass_waiters_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(pass_mu_);
    pass_waiters_.fetch_sub(1, std::memory_order_relaxed);
    return lock;
  }
  std::shared_ptr<Session> find(SessionId id) const;
  /// Removes the session from this shard's map WITHOUT queueing a
  /// clone-store forget (the caller owns the clone handoff).
  std::shared_ptr<Session> detach_session(SessionId id);
  void attach_session(std::shared_ptr<Session> s);
  CloneStore& store() { return clone_store_; }
  std::atomic<std::size_t>* gauge() { return &shard_in_flight_; }
  void note_migration_in() {
    migrations_in_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_migration_out() {
    migrations_out_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_migration_failure() {
    migration_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Records one migrate-stage sample (drain -> rebind wall time) into
  /// this shard's cumulative telemetry.
  void record_migration(double seconds);

 private:
  /// The shared submit path: lookup, migration window, the GLOBAL
  /// in-flight admission gate, the label-corruption fault, then
  /// `enqueue(session, label, now)` (which consults the payload's own
  /// fault point) and the scheduler wake-up.
  template <typename Enqueue>
  SubmitResult submit(SessionId id, const fuse::human::Pose* label,
                      Enqueue&& enqueue);
  std::vector<std::shared_ptr<Session>> snapshot_sessions() const;
  void scheduler_loop();
  /// Flags pending work (under wake_mu_) and wakes the shard's scheduler
  /// thread; no-op in synchronous mode.
  void wake_scheduler();

  // ------------------------------------------------------------- the pass --
  /// One pass's counters and telemetry.  The pass records into it
  /// lock-free; run_once merges it into the cumulative stats under
  /// stats_mu_ once, at the end (telemetry.h).  `latency` (submit ->
  /// result) is always recorded, `telem` only with detailed stats.
  struct PassRecord {
    std::uint64_t batches = 0;         ///< batched forward passes run
    std::uint64_t batched_frames = 0;  ///< frames served through them
    LatencyHistogram latency;
    StageStats telem;
  };
  /// One frame collected by the current pass; its features are row i of
  /// rows_, where i is its index in collected_.
  struct Collected {
    Session* session;
    std::uint64_t seq;
    std::uint64_t epoch;  ///< recycle epoch at enqueue
    double t_enqueue;
    /// Normalized label for the adaptation buffer, if the frame carries
    /// one the session may buffer.
    std::optional<std::array<float, fuse::human::kNumCoords>> label;
  };
  /// collect -> infer -> fan out -> adapt over `sessions` (pending
  /// recycles are applied as their sessions are popped).  Returns the
  /// frames served.
  std::size_t serve_pass(const std::vector<Session*>& sessions,
                         PassRecord& rec);
  /// Fills collected_ and rows_ (one featurized frame per entry).
  void collect(const std::vector<Session*>& sessions, PassRecord& rec);
  /// Runs the trunk over rows_ and every frame's row through its head,
  /// delivers the poses and buffers the labeled frames' trunk rows.
  void infer_batch(PassRecord& rec);
  /// Runs one adaptation round on the session's head if it is due;
  /// returns whether a round actually ran (for stage timing).
  bool maybe_adapt(Session& s);
  /// Quarantine teardown: the session's head (if any), its buffered
  /// labels and its checkpoint go; it serves the shared head from here on.
  void drop_clone(Session& s);

  const fuse::core::Predictor* predictor_;
  const fuse::nn::Sequential* shared_model_;
  const fuse::nn::Module* shared_head_;  ///< shared_model_'s last child
  ServeConfig cfg_;  ///< the server-wide config
  const std::size_t index_;
  /// Server-global admission gauge (max_in_flight) — shared across
  /// shards.  Declared before sessions_ so sessions (which drain it on
  /// destruction) die first; the atomic itself outlives the shard.
  std::atomic<std::size_t>* global_in_flight_;
  /// This shard's queued frames: feeds the shard's overload detector.
  std::atomic<std::size_t> shard_in_flight_{0};
  /// Set when a session of this shard may hold a recycle no pass has
  /// consumed yet (recycle_session, attach_session); cleared by a pass
  /// that pops every session, so idle passes can skip the sweep.
  std::atomic<bool> recycle_pending_{false};
  CloneStore clone_store_;
  /// Scheduling-thread only (fed by run_once); level/transitions are
  /// mirrored into the atomics below for any-thread stats readers.  The
  /// rung it arms at the end of a pass governs the next pass.
  OverloadDetector detector_;
  std::atomic<int> overload_level_{0};
  std::atomic<std::uint64_t> overload_transitions_{0};

  mutable std::mutex sessions_mu_;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_;

  mutable std::mutex stats_mu_;
  LatencyHistogram latency_;
  StageStats telem_;  ///< cumulative per-stage detail
  std::uint64_t batches_ = 0;
  std::uint64_t batched_frames_ = 0;
  QueueDepthSeries depth_series_;  ///< one gauge sample per pass

  /// Held for the full run_once tick; see lock_pass().
  std::mutex pass_mu_;
  /// Callers blocked in lock_pass(); a busy scheduler thread yields the
  /// pass lock to them between passes (see scheduler_loop).
  std::atomic<std::size_t> pass_waiters_{0};
  std::atomic<std::uint64_t> migrations_in_{0};
  std::atomic<std::uint64_t> migrations_out_{0};
  std::atomic<std::uint64_t> migration_failures_{0};

  std::thread thread_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> running_{false};
  bool stop_requested_ = false;  ///< guarded by wake_mu_
  bool work_pending_ = false;    ///< guarded by wake_mu_; set by producers

  // Pass scratch (run_once is never concurrent with itself), reused
  // across passes.
  fuse::radar::FrameWorkspace frame_ws_;
  fuse::radar::ProcessedFrame cube_frame_;
  fuse::core::PredictScratch feat_scratch_;
  std::vector<const fuse::radar::PointCloud*> window_ptrs_;
  std::vector<Collected> collected_;
  std::vector<float> rows_;  ///< featurized rows of collected_, in order
  // A head round's batch and tape: rounds on a shard run one after
  // another, so one of each serves every session it adapts.
  fuse::tensor::Tensor adapt_x_, adapt_y_;
  fuse::nn::Tape adapt_tape_;
};

}  // namespace fuse::serve
