#pragma once
// CloneStore — the lifecycle manager for per-user adapted heads.
//
// Online adaptation (Shard::maybe_adapt) gives every adapting session a
// private fp32 clone of the shared head (the shared model's last layer):
// params + grads, 0.23 MB per user for the MARS CNN's fc2.  The store
// bounds that RAM further:
//
//  * checkpointing — an idle clone is written with Module::save_file (a
//    FUSEMOD2 module file: the head's raw fp32 parameters behind an arch
//    tag, length and checksum) to its checkpoint file
//    (serve/clone_store/layout.h), then the in-RAM clone is dropped;
//  * LRU eviction — when resident clones exceed
//    CloneStoreConfig::max_resident_clones, the least recently used
//    sessions' clones are checkpointed and evicted at the end of the
//    scheduler pass (every clone costs the same bytes, so the count cap
//    is the RAM cap);
//  * transparent rehydration — before a session's frame is batched (and
//    before an adaptation round), an evicted clone is rebuilt as a clone
//    of the shared head with the file loaded into it.  The rehydrated
//    clone is bit-exact, so eviction is invisible to pose outputs;
//  * warm restart — persist() checkpoints every live clone plus a manifest;
//    restore() re-registers them so a freshly constructed server resumes
//    every user's adapted head from disk (a full-model checkpoint written
//    before heads fails the arch check, and a retired FUSEDLT1 delta file
//    the magic check; both are skipped and deleted).
//
// Thread contract (mirrors Session's scheduler side): every mutating method
// runs on the scheduler thread only — except request_forget(), which any
// thread may call (close_session); the pending ids are drained at the start
// of the next pass.  The counters/gauges behind stats_snapshot() are
// relaxed atomics, readable from any thread at any time.
//
// A disabled store (empty dir) tracks nothing: every pass-side method is
// a no-op, so callers never check for it first.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/module.h"
#include "serve/session.h"
#include "serve/stats.h"

namespace fuse::serve {

struct CloneStoreConfig {
  /// Checkpoint directory (created on configure).  Empty = the store is
  /// disabled and every clone stays resident forever (the pre-store
  /// behaviour).
  std::string dir;
  /// Resident-clone cap; 0 = unlimited (clones still checkpoint on
  /// persist(), but nothing is evicted mid-serve).  Resident RAM is
  /// max_resident_clones * the shared head's params + grads bytes.
  std::size_t max_resident_clones = 0;
};

class CloneStore {
 public:
  CloneStore() = default;
  CloneStore(const CloneStore&) = delete;
  CloneStore& operator=(const CloneStore&) = delete;

  /// Binds the store to its checkpoint directory and the shared head
  /// (borrowed; must outlive the store).  Creates cfg.dir.  Call once,
  /// before serving starts.
  void configure(CloneStoreConfig cfg, const fuse::nn::Module* base);

  // ------------------------------------------------- scheduler-side pass --
  /// Starts a pass: advances the LRU clock and drains pending forgets.
  void begin_pass();

  /// Makes the session's adapted clone resident if the store holds an
  /// evicted checkpoint for it: loads the file into a clone of the shared
  /// head, in the session's adapted slot.  Also the LRU touch and the
  /// hit/miss counter site for sessions with a tracked clone.  Returns true iff a
  /// rehydration actually ran (the caller's Stage::kRehydrate timing
  /// gate).  A corrupt/unreadable checkpoint never propagates: the entry
  /// is dropped (rehydrate_failures counter), the session falls back to
  /// the shared head, and serving continues.
  bool ensure_resident(Session& s);

  /// Records that an adaptation round ran on the session's (now resident)
  /// clone: registers it on first sight, marks its checkpoint stale.
  void note_adapted(Session& s);

  /// Drops the session's entry and deletes its checkpoint (recycle — the
  /// next subject must not inherit the previous subject's adaptation).
  void forget(SessionId id);

  /// Any-thread variant of forget() (close_session): queues the id; the
  /// scheduler drains the queue at the start of its next pass.
  void request_forget(SessionId id);

  /// Any-thread: true while request_forget() ids wait for begin_pass()
  /// (an otherwise idle shard still runs a pass for them).
  bool forgets_pending();

  /// Evicts least-recently-used resident clones until the cap holds,
  /// checkpointing stale ones first.  `sessions` is the current pass's
  /// session set (entries whose session is absent are skipped — a
  /// concurrent close's forget is already queued).  Returns clones
  /// evicted.  Call at the end of a pass.
  std::size_t enforce_budget(const std::vector<Session*>& sessions);

  // ------------------------------------------------------- warm restart --
  /// Checkpoints every tracked clone that is resident-and-stale and writes
  /// the manifest, so a new process can restore().  Server must be
  /// stopped (scheduler-thread contract).  Both the checkpoint files and the
  /// manifest are replaced atomically (tmp + flush + rename), so a crash
  /// mid-persist leaves the previous consistent generation on disk.  A
  /// clone whose checkpoint write fails keeps its previous checkpoint (if
  /// any) in the manifest — stale beats absent.
  void persist(const std::vector<Session*>& sessions);

  /// Reads the manifest written by persist() and registers every
  /// checkpoint as an evicted clone; returns the session ids, which the
  /// caller (Shard::restore_clones) re-creates.  The first frame
  /// of each session rehydrates its clone transparently.
  ///
  /// Tolerant by contract (PR 8): every checkpoint is validated (decoded
  /// end to end against the shared head: FUSEMOD2 magic, arch tag,
  /// length and checksum) before registration;
  /// corrupt, truncated or missing entries are skipped and counted
  /// (restore_skipped), never thrown.  A missing manifest, or a torn or
  /// corrupt one (also counted in restore_skipped), falls back to
  /// scanning the directory for checkpoint files, so a crash before or
  /// during the manifest write still recovers every valid checkpoint on
  /// disk.
  std::vector<SessionId> restore();

  // ---------------------------------------------------------- telemetry --
  /// Relaxed-atomic snapshot; callable from any thread.
  CloneStoreSnapshot stats_snapshot() const;

 private:
  struct Entry {
    std::uint64_t last_used = 0;  ///< LRU clock value of the last touch
    bool resident = false;        ///< clone lives in the session's slot
    bool stale = false;           ///< adapted since the last checkpoint
    bool on_disk = false;         ///< checkpoint file exists
    std::size_t file_bytes = 0;   ///< size of the on-disk checkpoint
  };

  /// Writes the session's head to its checkpoint file and updates
  /// accounting.
  void checkpoint(Session& s, Entry& e);

  CloneStoreConfig cfg_;
  const fuse::nn::Module* base_ = nullptr;
  bool enabled_ = false;
  std::size_t clone_bytes_ = 0;
  std::uint64_t clock_ = 0;

  std::unordered_map<SessionId, Entry> entries_;

  std::mutex forget_mu_;
  std::vector<SessionId> pending_forgets_;  ///< guarded by forget_mu_

  // Lifecycle counters (cumulative) and occupancy gauges, all relaxed:
  // written by the scheduler thread, read by any stats() caller.
  std::atomic<std::uint64_t> hits_{0};         ///< lookups: clone resident
  std::atomic<std::uint64_t> misses_{0};       ///< lookups: clone evicted
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> rehydrations_{0};
  std::atomic<std::uint64_t> checkpoint_writes_{0};
  // Fault-recovery counters (PR 8): corruption detected and survived.
  std::atomic<std::uint64_t> restore_skipped_{0};
  std::atomic<std::uint64_t> rehydrate_failures_{0};
  std::atomic<std::uint64_t> checkpoint_failures_{0};
  std::atomic<std::size_t> resident_{0};
  std::atomic<std::size_t> resident_bytes_{0};
  std::atomic<std::size_t> disk_bytes_{0};
  std::atomic<std::size_t> tracked_{0};
};

}  // namespace fuse::serve
