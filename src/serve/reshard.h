#pragma once
// serve::reshard — offline re-shard of a persisted clone-store directory.
//
// Changing ServeConfig::num_shards is a data migration, not a restart:
// session ids hash to different home shards, so the per-shard checkpoint
// dirs a warm restart reads no longer line up and restore_clones refuses
// the store.  reshard() rewrites the directory from its current M-shard
// layout to an N-shard layout offline (no server may hold the dir).  The
// layouts, the manifests, the shard map and the journal this protocol
// reads and writes are defined in serve/clone_store/layout.h.
//
// Crash safety is a two-phase journaled protocol over util/atomic_file:
//
//   1. scan     — enumerate every checkpoint file in the old layout,
//                 resolve duplicate ids (shard-map pin > old home shard
//                 > lowest shard), and drop checkpoints that fail a
//                 full decode;
//   2. journal  — atomically write the journal (phase "plan") recording
//                 from/to and every (id, src, dst) move;
//   3. copy     — copy each checkpoint to its new-home location via
//                 atomic writes (src == dst entries are kept in place);
//   4. verify   — fully decode every destination file (checksum, and
//                 arch check against `base` when provided);
//   5. commit   — rewrite the journal with phase "copied": THE commit
//                 point.  Before it, the old manifests still describe
//                 the old layout exactly; after it, recovery only ever
//                 rolls forward;
//   6. publish  — write the N new manifests and the new shard map (or
//                 remove it for N == 1);
//   7. sweep    — delete the old layout's files, manifests, emptied
//                 shard dirs, and finally the journal.
//
// A crash at ANY point (including torn journal/manifest writes — see
// util/fault.h kMigrationKill / kTornShardMap and the write-path faults)
// leaves the directory fully restorable: re-running reshard() resumes
// from the journal (re-copying idempotently before the commit point,
// finishing publish + sweep after it), and until the commit point a
// server configured with the OLD num_shards still restores the store
// bit-exactly.  A torn journal (one without its final `end` line) is
// discarded and the run starts fresh.

#include <cstddef>
#include <string>

#include "nn/module.h"
#include "serve/session.h"

namespace fuse::serve {

struct ReshardConfig {
  std::string dir;       ///< the clone-store directory to rewrite
  /// Source shard count; 0 (default) autodetects from the directory
  /// layout (one past the highest shard dir holding store data, else
  /// flat == 1).
  std::size_t from = 0;
  std::size_t to = 0;    ///< target shard count; must be >= 1
  /// Optional shared model: when set, verification additionally checks
  /// every checkpoint's architecture tag against it.
  const fuse::nn::Module* base = nullptr;
};

struct ReshardReport {
  std::size_t from = 0;          ///< resolved source shard count
  std::size_t to = 0;
  std::size_t clones_moved = 0;  ///< checkpoints copied to a new home
  std::size_t clones_kept = 0;   ///< already at their new home
  std::size_t skipped = 0;       ///< corrupt/undecodable checkpoints dropped
  bool resumed = false;          ///< finished an interrupted earlier run
};

/// Rewrites the clone store at cfg.dir from its current layout to
/// cfg.to shards (see the protocol above).  Throws std::invalid_argument
/// on a bad config and std::runtime_error when interrupted by an
/// injected fault or I/O failure — in both cases the directory remains
/// fully restorable (old layout before the commit point, new after) and
/// re-running resumes the migration.
ReshardReport reshard(const ReshardConfig& cfg);

}  // namespace fuse::serve
