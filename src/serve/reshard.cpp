#include "serve/reshard.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/clone_store/layout.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/log.h"

namespace fs = std::filesystem;

namespace fuse::serve {
namespace {

using layout::clone_path;
using layout::home_shard;
using layout::Journal;
using layout::Move;
using layout::shard_dir;

/// Enumerates every usable checkpoint in the old layout and plans its
/// new-layout home.  Duplicate ids (possible after a crash between a
/// live migration's copy and delete) resolve shard-map pin > old home
/// shard > lowest shard index.
std::vector<Move> plan_moves(const std::string& dir, std::size_t from,
                             std::size_t to, const fuse::nn::Module* base,
                             std::size_t* skipped) {
  // id -> old shards that hold a file for it (std::map: deterministic
  // journal order).
  std::map<SessionId, std::set<std::size_t>> found;
  for (std::size_t k = 0; k < from; ++k)
    for (const SessionId id : layout::scan_clone_ids(shard_dir(dir, k, from)))
      found[id].insert(k);
  // Migrated-placement pins from the old layout's shard map; a torn map,
  // or one for a different topology, pins nothing.
  auto map = layout::read_map(dir);
  if (map.status != layout::FileStatus::kValid || map.shards != from)
    map.pins.clear();
  std::vector<Move> moves;
  for (const auto& [id, shards] : found) {
    // Candidate order: shard-map pin > old home shard > the rest.  The
    // first held copy that decodes wins — a torn stray left by an
    // interrupted copy must not shadow a clean source elsewhere.
    std::vector<std::size_t> order(shards.begin(), shards.end());
    order.insert(order.begin(), home_shard(id, from));
    if (const auto pin = map.pins.find(id); pin != map.pins.end())
      order.insert(order.begin(), pin->second);
    const auto src =
        std::find_if(order.begin(), order.end(), [&](std::size_t k) {
          return shards.count(k) != 0 &&
                 layout::checkpoint_decodes(
                     clone_path(shard_dir(dir, k, from), id), base);
        });
    if (src == order.end()) {
      ++*skipped;
      FUSE_LOG_WARN("reshard: skipping undecodable checkpoint for session "
                    "%zu (no shard holds a clean copy)",
                    id);
      continue;
    }
    moves.push_back(Move{id, *src, home_shard(id, to)});
  }
  return moves;
}

/// A move's checkpoint in the old and in the new layout.
std::string src_path(const std::string& dir, const Journal& j,
                     const Move& m) {
  return clone_path(shard_dir(dir, m.src, j.from), m.id);
}
std::string dst_path(const std::string& dir, const Journal& j,
                     const Move& m) {
  return clone_path(shard_dir(dir, m.dst, j.to), m.id);
}

void copy_checkpoints(const std::string& dir, const Journal& j) {
  for (const auto& m : j.moves) {
    const std::string src = src_path(dir, j, m);
    const std::string dst = dst_path(dir, j, m);
    if (src == dst) continue;
    // Resume idempotency: a destination that already decodes was copied
    // by the interrupted run.
    if (layout::checkpoint_decodes(dst, nullptr)) continue;
    if (fuse::util::fault_fire(fuse::util::FaultPoint::kMigrationKill))
      throw std::runtime_error(
          "reshard: injected crash — killed mid-copy of session " +
          std::to_string(m.id));
    std::ifstream in(src, std::ios::binary);
    if (!in.is_open())
      throw std::runtime_error("reshard: cannot read " + src);
    std::ostringstream buf;
    buf << in.rdbuf();
    fs::create_directories(shard_dir(dir, m.dst, j.to));
    fuse::util::write_file_atomic(dst, buf.str());
  }
}

void verify_destinations(const std::string& dir, const Journal& j,
                         const fuse::nn::Module* base) {
  for (const auto& m : j.moves) {
    const std::string dst = dst_path(dir, j, m);
    if (!layout::checkpoint_decodes(dst, base))
      throw std::runtime_error(
          "reshard: verify failed — destination checkpoint for session " +
          std::to_string(m.id) + " does not decode (" + dst +
          "); the old layout is intact, re-run to retry");
  }
}

/// Post-commit: write the new layout's manifests and shard map.
void publish_new_layout(const std::string& dir, const Journal& j) {
  std::vector<std::vector<SessionId>> by_shard(j.to);
  for (const auto& m : j.moves) by_shard[m.dst].push_back(m.id);
  for (std::size_t k = 0; k < j.to; ++k) {
    fs::create_directories(shard_dir(dir, k, j.to));
    layout::write_manifest(shard_dir(dir, k, j.to), by_shard[k]);
  }
  if (j.to > 1) {
    // Fresh topology stamp; every session now sits at its new home, so
    // the placement table starts empty.
    layout::write_map(dir, {layout::FileStatus::kValid, j.to, {}}, false);
  } else {
    std::error_code ec;
    fs::remove(layout::map_path(dir), ec);  // flat stores carry no map
  }
}

/// Post-publish: delete everything the new layout does not reference —
/// including stale or undecodable files the plan skipped, which would
/// otherwise resurface through the manifest-loss directory scan.  Every
/// removal tolerates "already gone" (a crash mid-sweep resumes here), and
/// nothing here can un-publish the new layout.
void sweep_old_layout(const std::string& dir, const Journal& j) {
  std::error_code ec;
  std::set<std::string> keep;
  for (const auto& m : j.moves) keep.insert(dst_path(dir, j, m));
  for (std::size_t k = 0; k < j.from; ++k) {
    const std::string d = shard_dir(dir, k, j.from);
    for (const SessionId id : layout::scan_clone_ids(d))
      if (keep.count(clone_path(d, id)) == 0)
        fs::remove(clone_path(d, id), ec);
  }
  // Old shard dirs beyond the new count, or a previously flat manifest.
  if (j.from > 1)
    for (std::size_t k = (j.to > 1 ? j.to : 0); k < j.from; ++k)
      fs::remove_all(shard_dir(dir, k, j.from), ec);
  else if (j.to > 1)
    fs::remove(layout::manifest_path(dir), ec);
  fs::remove(layout::journal_path(dir), ec);
}

}  // namespace

ReshardReport reshard(const ReshardConfig& cfg) {
  if (cfg.dir.empty())
    throw std::invalid_argument("reshard: dir must be set");
  if (cfg.to == 0)
    throw std::invalid_argument("reshard: to must be >= 1");
  if (!fs::is_directory(cfg.dir))
    throw std::invalid_argument("reshard: no clone store at '" + cfg.dir +
                                "'");
  ReshardReport report;
  Journal j = layout::read_journal(cfg.dir);
  if (j.status == layout::FileStatus::kValid) {
    if (j.to != cfg.to)
      throw std::runtime_error(
          "reshard: an interrupted re-shard to " + std::to_string(j.to) +
          " shards is journaled at '" + cfg.dir +
          "' — re-run with --to " + std::to_string(j.to) +
          " to finish it first");
    report.resumed = true;
  } else {
    // No journal, or a torn one: the run that wrote it died before its
    // commit point, so the old layout is still authoritative — plan
    // afresh.  Autodetected `from`: one past the highest shard dir
    // holding data, else flat.
    j.from = cfg.from;
    if (j.from == 0) {
      const auto sharded = layout::shards_with_data(cfg.dir);
      j.from = sharded.empty() ? 1 : sharded.back() + 1;
    }
    j.to = cfg.to;
    j.phase = Journal::Phase::kPlan;
    j.moves = plan_moves(cfg.dir, j.from, j.to, cfg.base, &report.skipped);
    layout::write_journal(cfg.dir, j);
  }
  report.from = j.from;
  report.to = j.to;
  for (const auto& m : j.moves) {
    if (src_path(cfg.dir, j, m) == dst_path(cfg.dir, j, m))
      ++report.clones_kept;
    else
      ++report.clones_moved;
  }
  if (j.phase == Journal::Phase::kPlan) {
    copy_checkpoints(cfg.dir, j);
    verify_destinations(cfg.dir, j, cfg.base);
    j.phase = Journal::Phase::kCopied;
    layout::write_journal(cfg.dir, j);  // COMMIT POINT
  }
  publish_new_layout(cfg.dir, j);
  sweep_old_layout(cfg.dir, j);
  FUSE_LOG_DEBUG("reshard: %zu -> %zu shards, moved %zu, kept %zu, "
                 "skipped %zu%s",
                 report.from, report.to, report.clones_moved,
                 report.clones_kept, report.skipped,
                 report.resumed ? " (resumed)" : "");
  return report;
}

}  // namespace fuse::serve
