#pragma once
// serve::layout — the clone store's on-disk format, and the only code that
// knows it.  CloneStore, Shard, Server and reshard all go through here.
//
// A store directory `<dir>` laid out for N shards:
//
//   N == 1 : <dir>/clone_<id>.delta + <dir>/clones.manifest       (flat)
//   N  > 1 : <dir>/shard_<k>/clone_<id>.delta + a manifest per shard dir,
//            plus <dir>/shard_map (migrated placements)
//   during an offline re-shard, also <dir>/reshard.journal
//
// A session lives on its home shard `home_shard(id, N)` unless the
// shard_map pins it elsewhere (a live migration).  Checkpoints are
// nn::ParamDelta files (FUSEDLT1); this module names and validates them
// but never writes one.
//
// The three record files share one line format: a magic line, one record
// per line, then a final `end` line:
//
//   clones.manifest   FUSECLONES1  | <id>                        | end
//   shard_map         FUSESHMAP1   | shards <N> | <id> <shard>   | end
//   reshard.journal   FUSERESHARD1 | from <M> | to <N> |
//                     phase plan|copied | <id> <src> <dst>       | end
//
// A file without its `end` line was torn mid-write (or predates the `end`
// line) and reads as FileStatus::kInvalid; each caller then takes its own
// safe fallback: a manifest falls back to a directory scan, a shard_map
// lets the checkpoints on disk decide placement, and a journal is
// discarded and the re-shard re-planned.

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/module.h"
#include "serve/session.h"

namespace fuse::serve::layout {

/// Home shard of session `id` under `shards` shards.  Ids are allocated
/// from 1, so consecutive opens round-robin the shards.  Inline:
/// Server::shard_of runs it on every submit.
inline std::size_t home_shard(SessionId id, std::size_t shards) {
  return id == 0 ? 0 : (id - 1) % shards;
}

/// Shard k's store directory under a store laid out for `shards` shards:
/// `root` itself for one shard (flat), else `<root>/shard_<k>`.
std::string shard_dir(const std::string& root, std::size_t k,
                      std::size_t shards);
/// The checkpoint file of session `id` in a shard's store directory.
std::string clone_path(const std::string& dir, SessionId id);
std::string manifest_path(const std::string& dir);
/// The shard_map file: the store's shard count and migrated placements.
std::string map_path(const std::string& root);
std::string journal_path(const std::string& root);

/// True iff the checkpoint at `path` decodes end to end (the FUSEDLT1
/// checksum catches truncation, torn writes and bit rot) and, when `base`
/// is given, carries its architecture tag.  Never throws.
bool checkpoint_decodes(const std::string& path,
                        const fuse::nn::Module* base);
/// Session ids of the checkpoint files directly in `dir`, ascending.
std::vector<SessionId> scan_clone_ids(const std::string& dir);
/// True when `dir` directly holds store data: a manifest or a checkpoint.
bool has_store_data(const std::string& dir);
/// Indices k (ascending) whose `<root>/shard_<k>` holds store data.  Bare
/// shard dirs do not count: constructing a sharded server creates them
/// empty before restore_clones can refuse a mismatched layout.
std::vector<std::size_t> shards_with_data(const std::string& root);

enum class FileStatus {
  kMissing,  ///< no such file
  kInvalid,  ///< torn, corrupt, or without its `end` line
  kValid,
};

struct Manifest {
  FileStatus status = FileStatus::kMissing;
  std::vector<SessionId> ids;
};

/// Placement table: the store's shard count plus every migrated session's
/// pinned shard (home placements need no row).
struct ShardMap {
  FileStatus status = FileStatus::kMissing;
  std::size_t shards = 0;
  std::unordered_map<SessionId, std::size_t> pins;
};

/// One planned re-shard move; src and dst index the old and new layouts.
struct Move {
  SessionId id = 0;
  std::size_t src = 0;
  std::size_t dst = 0;
};

struct Journal {
  enum class Phase { kPlan, kCopied };
  FileStatus status = FileStatus::kMissing;
  Phase phase = Phase::kPlan;
  std::size_t from = 0;
  std::size_t to = 0;
  std::vector<Move> moves;
};

Manifest read_manifest(const std::string& dir);
ShardMap read_map(const std::string& root);
Journal read_journal(const std::string& root);

// Writers replace their file atomically (util::write_file_atomic) and throw
// on failure, leaving the previous file in place.  A write that is a
// FaultPoint::kTornShardMap site models a crash mid-write instead: only a
// prefix reaches disk and std::runtime_error is thrown.

/// Lists `ids` ascending, so the file is deterministic.
void write_manifest(const std::string& dir, std::vector<SessionId> ids);
/// `torn_fault_site`: whether this write consults kTornShardMap
/// (persist_clones' write does; reshard's publish does not).
void write_map(const std::string& root, const ShardMap& map,
               bool torn_fault_site);
/// Always a kTornShardMap site.
void write_journal(const std::string& root, const Journal& j);

}  // namespace fuse::serve::layout
