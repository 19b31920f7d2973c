#pragma once
// The inference scheduler: drains per-session queues round-robin,
// micro-batches featurized frames ACROSS sessions into a single batched
// Module::infer call, and fans the results back to each session's tracker
// and result queue.
//
// Batching policy (see DESIGN.md):
//  * one collection pass pops at most one frame per session, repeated until
//    `max_batch` frames are gathered or every queue is empty — deep queues
//    cannot starve their neighbours;
//  * frames of sessions serving the shared meta-model are batched together;
//    a session with an adapted per-user clone forms its own (small) batch,
//    since its parameters differ;
//  * each sample's fusion window is advanced and featurized at collection
//    time, in its session's FIFO order, so the maths are identical to the
//    single-session path and outputs are deterministic regardless of how
//    frames interleave across sessions.
//
// After the forward passes the scheduler runs at most one online-adaptation
// round per eligible session (labeled-frame buffer full enough), using the
// MAML inner update (core::sgd_step) on that session's clone.

#include <cstddef>
#include <vector>

#include "core/predictor.h"
#include "nn/module.h"
#include "radar/processing.h"
#include "serve/overload.h"
#include "serve/session.h"
#include "serve/stats.h"
#include "serve/telemetry.h"

namespace fuse::serve {

class CloneStore;

/// Counters for one run_once pass (the caller owns the cumulative totals,
/// so the scheduler itself never needs a lock).
struct PassStats {
  std::size_t served = 0;           ///< frames served this pass
  std::uint64_t batches = 0;        ///< batched forward passes run
  std::uint64_t batched_frames = 0; ///< frames served through them
  std::size_t shed = 0;             ///< frames shed by deadline this pass
  std::size_t rejected = 0;         ///< non-finite frames rejected this pass
};

/// Pass-local telemetry sink: the scheduler records into this lock-free
/// during run_once; the caller merges it into the cumulative stats under
/// its stats lock afterwards (so the hot path never contends with
/// readers).  `latency` (submit->result) is always recorded; the
/// per-stage detail in `telem` only when the scheduler's detailed-stats
/// flag is on.
struct PassRecord {
  LatencyHistogram latency;
  StageStats telem;
};

class Scheduler {
 public:
  /// `predictor` and `shared_model` must outlive the scheduler; the shared
  /// model is only read (infer is const).  `processor` (may be null)
  /// enables raw-cube ingestion: cube frames run the DSP front-end through
  /// the scheduler's reusable FrameWorkspace at collection time, so the
  /// whole cube -> point cloud -> features -> NN tick is
  /// allocation-disciplined.  It must outlive the scheduler too.
  Scheduler(const fuse::core::Predictor* predictor,
            const fuse::nn::Module* shared_model, std::size_t max_batch,
            const fuse::radar::Processor* processor = nullptr)
      : predictor_(predictor),
        shared_model_(shared_model),
        max_batch_(max_batch ? max_batch : 1),
        processor_(processor) {}

  /// One scheduling pass over `sessions` (applies pending session recycles
  /// first).  `rec.latency` receives one sample per served frame;
  /// `rec.telem` the per-stage timings when detailed stats are on.
  PassStats run_once(const std::vector<Session*>& sessions, PassRecord& rec);

  /// Toggles the per-stage recording (ServeConfig::detailed_stats).  The
  /// always-on submit->result latency histogram and the session counters
  /// are unaffected; with this off a pass performs no extra clock reads or
  /// histogram increments (the stats-idle mode the overhead gate in
  /// bench/serve_throughput measures against).
  void set_detailed_stats(bool on) { detailed_stats_ = on; }
  bool detailed_stats() const { return detailed_stats_; }

  /// Sets the degradation-ladder rung the next pass runs at (overload.h).
  /// Called by the owning Shard from its scheduling thread right after
  /// feeding its detector, so it needs no synchronization.
  void set_overload_level(OverloadLevel l) { level_ = l; }
  OverloadLevel overload_level() const { return level_; }

  /// Rung-2 shed deadline: at kShedDeadline, queued frames older than this
  /// are dropped at collection time (before DSP/featurize/infer).
  void set_shed_deadline(double seconds) { shed_deadline_s_ = seconds; }

  /// Attaches the adapted-clone store (serve/clone_store; borrowed, must
  /// outlive the scheduler; null or disabled = clones stay resident
  /// forever).  With a store attached, every pass drains pending forgets,
  /// rehydrates evicted clones before their sessions' frames are batched
  /// or adapted, and evicts LRU clones over budget at the end.
  void set_clone_store(CloneStore* store) { clone_store_ = store; }

 private:
  struct Item {
    Session* session = nullptr;
    Session::InFrame frame;
  };

  /// Featurizes the just-advanced window of `s` into `out` ([5*8*8]),
  /// through the scheduler's reusable featurize scratch.
  void featurize_current_window(Session& s, float* out);

  /// Runs one adaptation round on the session's clone if it is due;
  /// returns whether a round actually ran (for stage timing).
  bool maybe_adapt(Session& s);

  const fuse::core::Predictor* predictor_;
  const fuse::nn::Module* shared_model_;
  std::size_t max_batch_;
  const fuse::radar::Processor* processor_;
  CloneStore* clone_store_ = nullptr;
  bool detailed_stats_ = true;
  OverloadLevel level_ = OverloadLevel::kNormal;
  double shed_deadline_s_ = 0.05;

  // Scheduler-thread scratch (run_once is never concurrent with itself):
  // the DSP workspace for raw-cube frames and the featurize scratch both
  // recycle their buffers, so a steady tick performs no DSP-side
  // allocations.
  fuse::radar::FrameWorkspace frame_ws_;
  fuse::radar::ProcessedFrame cube_frame_;
  fuse::core::PredictScratch feat_scratch_;
  std::vector<const fuse::radar::PointCloud*> window_ptrs_;
};

}  // namespace fuse::serve
