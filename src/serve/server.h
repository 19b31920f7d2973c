#pragma once
// serve::Server — the sharded multi-session streaming serving runtime
// (API v2; DESIGN.md §10 has the old -> new migration table from the
// retired SessionManager surface).
//
// Sessions are placed across `ServeConfig::num_shards` independent
// scheduler shards.  Each shard owns its own scheduler thread, frame
// workspace, result queues, clone-store instance and overload detector,
// so batching/adaptation work scales with cores instead of capping at
// one.  Placement is an explicit shard-map table: every session starts
// on its home shard `layout::home_shard(id, num_shards)` (ids round-robin
// the shards; stable across close_session/recycle_session), and
// migrate_session() may later record an override moving it elsewhere.
// With no migrations the table is empty and shard_of() is exactly the old
// pure hash; the 1-shard configuration is bit-compatible with the
// pre-shard scheduler (the equivalence oracle — one shard runs exactly
// the old single-thread engine).
//
// Cross-shard migration (PR 10): migrate_session(id, shard) drains the
// session's queue, rebinds the session (its adapted head object travels
// with it) and its gauges on the target shard and replays the drained
// frames there.  In both serving modes the move executes inline, under
// both shards' pass locks; for its duration submits to the session return
// SubmitResult::kMigrating (retry-after semantics).  There is no built-in
// load balancer: a caller that wants balancing reads stats().per_shard and
// calls migrate_session().  Migrated placements persist with the clones (a
// shard-map file next to the per-shard stores; the disk format is
// serve/clone_store/layout.h) and are re-installed by restore_clones();
// changing num_shards itself remains an offline re-shard (tools/reshard,
// serve/reshard.h).
//
// In-flight gauge / overload-detector contract (multi-shard):
//  * admission (`max_in_flight`) is GLOBAL — one shared atomic gauge of
//    queued frames across every shard, so the budget bounds total server
//    memory against a hostile burst no matter how it hashes;
//  * overload detection is PER-SHARD — each shard's detector reads its
//    own queue-depth gauge, so a hot shard engages its degradation
//    ladder (pause-adapt -> shed) even while its neighbours sit
//    idle, and an idle fleet can never mask one overloaded shard.  The
//    merged stats() reports the max rung across shards.
//
// One execution model: a served frame runs on the thread that serves it.
// Every shard pass (Shard::run_once) runs its kernels inline — DSP,
// featurize, the batched forward and the adaptation step never fan out to
// the global thread pool — so the server scales by serving more sessions
// per shard and more shards, never by splitting one frame across cores.
// Who drives the passes is the only choice left:
//  * synchronous — run_once()/drain() step every shard from the calling
//    thread in shard order; fully deterministic, used by tests/benches;
//  * threaded — start() spawns one scheduler thread per shard; producers
//    call submit_frame/submit_cube from any thread.
//
// Model ownership: the server borrows the shared model and only ever
// calls its const inference paths, so training code may hold the same
// object as long as it does not mutate parameters while the server runs.
// Its last child is the head a session adapts (shared_head below); the
// other children are the frozen trunk every session shares.

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/predictor.h"
#include "nn/module.h"
#include "radar/processing.h"
#include "serve/clone_store/clone_store.h"
#include "serve/overload.h"
#include "serve/session.h"
#include "serve/stats.h"
#include "serve/telemetry.h"

namespace fuse::serve {

class Shard;

/// Why a submit_frame/submit_cube call did (not) enqueue its frame.  The
/// old bool collapsed "queue full", "admission refused" and "no such
/// session" into one false; callers that only care use accepted().
enum class SubmitResult {
  kAccepted,           ///< enqueued for serving
  /// Enqueued, but the session is quarantined: it will be served from
  /// the shared meta-init with adaptation disabled (serve/session.h).
  /// An *accepted* variant — the frame still produces a result — carried
  /// in the code so producers can surface the sensor problem.
  kQuarantined,
  kQueueFull,          ///< bounded queue full under DropPolicy::kDropNewest
  kAdmissionRejected,  ///< global max_in_flight budget exhausted
  kUnknownSession,     ///< no session with that id
  kNoProcessor,        ///< submit_cube without a ServeConfig::processor
  /// The session is mid-move to another shard (its queue is being drained
  /// for replay there); retry after the move commits.
  kMigrating,
  /// submit_cube with a cube whose shape the configured radar::Processor
  /// refuses (radar::Processor::accepts); nothing was enqueued.
  kMalformedCube,
};

/// True when the frame was enqueued and will produce a result.
constexpr bool accepted(SubmitResult r) {
  return r == SubmitResult::kAccepted || r == SubmitResult::kQuarantined;
}

const char* submit_result_name(SubmitResult r);

struct ServeConfig {
  std::size_t max_sessions = 64;   ///< across all shards
  std::size_t max_batch = 16;      ///< frames per batched forward pass
  /// Scheduler shards.  Sessions start on their home shard
  /// (layout::home_shard; migrate_session may move them) and each
  /// shard runs its own scheduler thread with private workspace, clone
  /// store and overload detector.  1 (default) reproduces the pre-shard
  /// single-thread engine bit-for-bit.
  std::size_t num_shards = 1;
  /// A single-value tag that selects nothing: every batched forward runs
  /// the implicit-GEMM tensor::conv2d and the GEMM (nn/layers.h).
  fuse::nn::Backend backend = fuse::nn::Backend::kGemm;
  /// Radar DSP front-end for raw-cube ingestion (submit_cube): when set,
  /// each shard runs cube -> point cloud -> features -> NN per tick
  /// through its own reusable FrameWorkspace.  Borrowed; must outlive the
  /// server.  Null disables submit_cube (it returns kNoProcessor).
  const fuse::radar::Processor* processor = nullptr;
  /// Per-stage telemetry recording (serve/telemetry.h).  Off
  /// = stats-idle: only the always-on submit->poll latency histogram and
  /// the plain counters are maintained, with zero extra clock reads on
  /// the scheduler hot path (the bench's overhead gate compares the two).
  bool detailed_stats = true;
  /// Adapted-head lifecycle (serve/clone_store): set clone_store.dir to
  /// bound the RAM of per-user adapted heads — idle heads are
  /// checkpointed as module files and evicted LRU under
  /// max_resident_clones, then transparently rehydrated (bit-exact) when
  /// their session is next served or adapted.  Empty dir (default) keeps
  /// every head resident.  With num_shards > 1 each shard keeps its own
  /// store instance in its own shard dir (the cap applies per shard); a
  /// warm restart must use the same num_shards the checkpoints were
  /// persisted with — changing the shard count is an offline re-shard
  /// (tools/reshard).
  CloneStoreConfig clone_store;
  /// Global admission budget: total queued frames across every session on
  /// every shard.  A submit over it is refused at the door
  /// (kAdmissionRejected; the session's admission_rejected counter), so a
  /// hostile arrival burst can bound neither memory nor queue latency.
  /// The gate reads one relaxed atomic, so a concurrent burst can
  /// overshoot by at most the number of producer threads.  0 = unlimited.
  std::size_t max_in_flight = 0;
  /// Overload detector feeding the graceful-degradation ladder
  /// (serve/overload.h): pause adaptation -> shed by deadline, with
  /// hysteresis.  One detector per shard, fed by that
  /// shard's own queue depth (see the contract at the top of this
  /// header).  Disabled by default.
  OverloadConfig overload;
  SessionConfig session;           ///< defaults for open_session()

  /// Consolidated ServeConfig + nested SessionConfig validation; throws
  /// std::invalid_argument naming the offending field.  The Server
  /// constructor calls this; open_session(SessionConfig) re-validates its
  /// per-session override.
  void validate() const;
};

/// Validates a per-session configuration (also covers ServeConfig::
/// session via ServeConfig::validate); throws std::invalid_argument.
void validate_session_config(const SessionConfig& cfg);

/// The head a session adapts: the last child of `model`, an nn::Sequential
/// whose last child has parameters (else std::invalid_argument).  Clone
/// checkpoints and ReshardConfig::base are relative to it.
const fuse::nn::Module& shared_head(const fuse::nn::Module& model);

class Server {
 public:
  /// `predictor` (fitted) and `shared_model` must outlive the server.
  /// Validates `cfg` (ServeConfig::validate) and the model (shared_head).
  Server(const fuse::core::Predictor* predictor,
         const fuse::nn::Module* shared_model, ServeConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // ------------------------------------------------------------- shards --
  std::size_t num_shards() const { return shards_.size(); }
  /// The shard owning session `id`: the explicit shard-map table when the
  /// session has been migrated, else its home shard (layout::home_shard).
  /// Stable across close_session/recycle_session and across warm restarts
  /// with the same num_shards (restore_clones re-installs migrated
  /// placements from the persisted shard map).
  std::size_t shard_of(SessionId id) const;

  /// Moves the session to `target_shard`: drains its queue, rebinds the
  /// session (adapted head included) + gauges on the target and replays
  /// the drained frames there.  Runs inline in both serving modes under
  /// both shards' pass locks (so it waits for a pass in progress on
  /// either shard); shard_of() reports the target as soon as it returns
  /// true.  Submits racing the move from other threads return kMigrating.  Returns false when the session or target does
  /// not exist or the move was rolled back (anything that throws before
  /// the commit point — a fault, a failed rehydration, std::bad_alloc;
  /// the session then still serves intact on its source shard, its
  /// queued frames requeued in order).
  /// A same-shard target is a no-op returning true.  This is also the
  /// load-balancing hook: the server never moves sessions on its own.
  bool migrate_session(SessionId id, std::size_t target_shard);

  // ------------------------------------------------------------ sessions --
  /// Opens a session with the server's default session config.
  SessionId open_session();
  /// Validates `cfg` (validate_session_config).  Ids are allocated
  /// sequentially from 1, so consecutive opens round-robin the shards.
  SessionId open_session(SessionConfig cfg);
  /// Closes and destroys the session; unpolled results are discarded.
  /// Waits out the owning shard's current pass and any live move of the
  /// session, so a close that races a migration always wins.
  void close_session(SessionId id);
  /// Recycles the session for a new subject: queue, results and sequence
  /// numbers clear immediately; fusion window, tracker, adaptation buffer
  /// and per-user model reset on its shard's next pass (safe while the
  /// shard threads are running).  Results of frames in flight at the time
  /// of the call are discarded.  The session stays on the same shard.
  void recycle_session(SessionId id);
  std::size_t session_count() const;

  // ------------------------------------------------------------- frames --
  /// Enqueues a frame (any thread).  A non-null `label` marks the frame
  /// as ground-truth-labeled and feeds the session's online adaptation.
  SubmitResult submit_frame(SessionId id, const fuse::radar::PointCloud& cloud,
                            const fuse::human::Pose* label = nullptr);

  /// Enqueues a raw radar cube (any thread); the DSP front-end runs on
  /// the owning shard's scheduler thread when the frame is collected, so
  /// producers pay only the copy.
  SubmitResult submit_cube(SessionId id, fuse::radar::RadarCube cube,
                           const fuse::human::Pose* label = nullptr);

  /// Moves out the session's finished results (any thread).
  std::vector<PoseResult> poll_results(SessionId id);

  // -------------------------------------------------------- synchronous --
  /// One scheduling pass per shard, in shard order (deterministic);
  /// returns frames served.  Do not mix with start().
  std::size_t run_once();
  /// Runs passes until every shard's queues are empty; returns served.
  std::size_t drain();

  // ------------------------------------------------------------ threaded --
  /// Spawns one scheduler thread per shard.
  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }

  // ----------------------------------------------------------- telemetry --
  /// Merged snapshot across every shard: counters, end-to-end latency
  /// quantiles (merged at histogram level, so quantiles are exact, not
  /// averages of quantiles), per-stage detail, per-shard
  /// rows, per-session rows (sorted by id).  overload_level is the max
  /// rung across shards.  Derived metrics are computed here at read time;
  /// callable from any thread.
  ServeStats stats() const;
  /// stats() serialized as structured JSON (serve::stats_to_json) — the
  /// live-query payload used by examples/clinic_server and the bench's
  /// SERVE_stats.json artifact.
  std::string stats_json() const { return stats_to_json(stats()); }

  // -------------------------------------------------------- warm restart --
  /// Checkpoints every session's adapted clone to its shard's clone store
  /// and writes per-shard manifests plus the shard map (migrated
  /// placements), so a new process pointed at the same clone_store.dir
  /// (and the same num_shards) can restore_clones().  Requires a
  /// configured store and a stopped server (throws std::logic_error
  /// otherwise); no-op when the store is disabled.
  void persist_clones();
  /// Re-creates one session (with `scfg`, under its original id and on
  /// the shard whose store holds its checkpoint) per clone checkpoint in
  /// each shard's manifest, re-installing migrated placements from the
  /// persisted shard map.  Call on a fresh server before start(); throws
  /// std::logic_error while running, or when the layout on disk belongs
  /// to a different num_shards (run tools/reshard first — re-sharding is
  /// a data migration, not a restart).  A torn/corrupt shard-map file is
  /// tolerated: the placement found on disk is the truth and off-home
  /// ids are re-pinned where their checkpoints live.  Returns the
  /// restored session ids, sorted.
  std::vector<SessionId> restore_clones(const SessionConfig& scfg);

 private:
  std::size_t session_count_unlocked() const;
  /// Executes one move; see migrate_session.  The caller holds both
  /// shards' pass locks.
  bool execute_migration(SessionId id, std::size_t target_shard);
  /// Calls `submit(shard)` on the session's shard, re-routing when a
  /// concurrent move re-placed the session mid-call.
  template <typename Submit>
  SubmitResult route_submit(SessionId id, Submit&& submit);
  void set_shard_override(SessionId id, std::size_t shard);
  void clear_shard_override(SessionId id);

  const fuse::core::Predictor* predictor_;
  ServeConfig cfg_;
  /// Global admission gauge: queued frames across every shard.  Declared
  /// before shards_ so every Session (which holds a pointer into it and
  /// drains it on destruction) is destroyed first.
  std::atomic<std::size_t> in_flight_{0};
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Guards id allocation and the max_sessions cap across shards.
  mutable std::mutex open_mu_;
  SessionId next_id_ = 1;

  /// Explicit shard-map table: overrides for sessions migrated off their
  /// home shard (absent id = home hash).  The submit hot path skips the
  /// lock entirely while the table is empty (the common case), via the
  /// relaxed override counter.
  mutable std::mutex map_mu_;
  std::unordered_map<SessionId, std::size_t> shard_overrides_;
  std::atomic<std::size_t> override_count_{0};

  std::atomic<bool> running_{false};
};

}  // namespace fuse::serve
