#pragma once
// serve::layout — the clone store's on-disk format, and the only code that
// knows it.  CloneStore and Server go through here.
//
// A store directory `<dir>` is flat for any number of shards: one file
// `<dir>/clone_<id>.delta` per persisted session, nothing else.  Every
// shard's CloneStore is configured with `<dir>` itself and writes and
// deletes only the files of the sessions it tracks; a restore scans the
// directory once and hands each id to its home shard `home_shard(id, N)`.
// The layout therefore does not depend on the shard count, and changing
// num_shards is a plain restart.
//
// Checkpoints are Module::save_file files (FUSEMOD2) of the session's
// head, each self-validating (arch tag, length, checksum), still named
// `.delta` so stores written before that format are found and their
// FUSEDLT1 files skipped; this module names and validates them but never
// writes one.

#include <cstddef>
#include <string>
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

/// The checkpoint file of session `id` in the store directory `dir`.
std::string clone_path(const std::string& dir, SessionId id);

/// True iff the checkpoint at `path` passes nn::read_checkpoint_file
/// against `base` (FUSEMOD2 magic, arch tag, payload length and checksum:
/// truncation, torn writes, bit rot and foreign formats all fail).  Never
/// throws.
bool checkpoint_decodes(const std::string& path,
                        const fuse::nn::Module& base);
/// Session ids of the checkpoint files directly in `dir`, ascending.
std::vector<SessionId> scan_clone_ids(const std::string& dir);

}  // namespace fuse::serve::layout
