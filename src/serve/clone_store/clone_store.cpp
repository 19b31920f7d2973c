#include "serve/clone_store/clone_store.h"

#include <filesystem>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "serve/clone_store/layout.h"
#include "util/log.h"

namespace fuse::serve {

namespace fs = std::filesystem;

void CloneStore::configure(CloneStoreConfig cfg, const fuse::nn::Module* base) {
  if (base == nullptr)
    throw std::invalid_argument("CloneStore::configure: null base model");
  cfg_ = std::move(cfg);
  base_ = base;
  enabled_ = !cfg_.dir.empty();
  // Resident accounting: a clone deep-copies params AND grads (Module::
  // clone), so one adapting user pins 8 bytes per head parameter.
  clone_bytes_ = base_->num_params() * 2 * sizeof(float);
  if (enabled_) fs::create_directories(cfg_.dir);
}

void CloneStore::begin_pass() {
  if (!enabled_) return;
  ++clock_;
  std::vector<SessionId> forgets;
  {
    std::lock_guard<std::mutex> lock(forget_mu_);
    forgets.swap(pending_forgets_);
  }
  for (const SessionId id : forgets) forget(id);
}

bool CloneStore::ensure_resident(Session& s) {
  if (!enabled_) return false;
  const auto it = entries_.find(s.id());
  if (it == entries_.end()) return false;  // no clone tracked: shared head
  Entry& e = it->second;
  e.last_used = clock_;
  if (e.resident) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  try {
    auto head = base_->clone();
    head->load_file(layout::clone_path(cfg_.dir, s.id()));
    s.adapted_slot() = std::move(head);
  } catch (const std::exception& ex) {
    // A corrupt or unreadable checkpoint must not kill the scheduler
    // thread: drop the entry (and the bad file) and serve this user from
    // the shared head — degraded, but alive and correct.
    rehydrate_failures_.fetch_add(1, std::memory_order_relaxed);
    FUSE_LOG_WARN("clone_store: rehydration of session %zu failed (%s); "
                  "serving shared head",
                  s.id(), ex.what());
    forget(s.id());
    return false;
  }
  // A fresh Session (warm restart) has never seen an adaptation round;
  // its stats must still read "adapted" once its clone is serving again.
  s.note_rehydrated();
  e.resident = true;
  rehydrations_.fetch_add(1, std::memory_order_relaxed);
  resident_.fetch_add(1, std::memory_order_relaxed);
  resident_bytes_.fetch_add(clone_bytes_, std::memory_order_relaxed);
  return true;
}

void CloneStore::note_adapted(Session& s) {
  if (!enabled_) return;
  auto it = entries_.find(s.id());
  if (it == entries_.end()) {
    it = entries_.emplace(s.id(), Entry{}).first;
    tracked_.fetch_add(1, std::memory_order_relaxed);
  }
  Entry& e = it->second;
  if (!e.resident) {
    e.resident = true;
    resident_.fetch_add(1, std::memory_order_relaxed);
    resident_bytes_.fetch_add(clone_bytes_, std::memory_order_relaxed);
  }
  e.last_used = clock_;
  e.stale = true;  // the on-disk checkpoint (if any) is now behind
}

void CloneStore::forget(SessionId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  const Entry e = it->second;
  entries_.erase(it);
  tracked_.fetch_sub(1, std::memory_order_relaxed);
  if (e.resident) {
    resident_.fetch_sub(1, std::memory_order_relaxed);
    resident_bytes_.fetch_sub(clone_bytes_, std::memory_order_relaxed);
  }
  if (e.on_disk) {
    std::error_code ec;
    // Best-effort; the accounting drops either way.
    fs::remove(layout::clone_path(cfg_.dir, id), ec);
    disk_bytes_.fetch_sub(e.file_bytes, std::memory_order_relaxed);
  }
}

void CloneStore::request_forget(SessionId id) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(forget_mu_);
  pending_forgets_.push_back(id);
}

bool CloneStore::forgets_pending() {
  std::lock_guard<std::mutex> lock(forget_mu_);
  return !pending_forgets_.empty();
}

void CloneStore::checkpoint(Session& s, Entry& e) {
  const std::string path = layout::clone_path(cfg_.dir, s.id());
  s.adapted_head()->save_file(path);
  if (e.on_disk) disk_bytes_.fetch_sub(e.file_bytes, std::memory_order_relaxed);
  e.file_bytes = static_cast<std::size_t>(fs::file_size(path));
  e.on_disk = true;
  e.stale = false;
  disk_bytes_.fetch_add(e.file_bytes, std::memory_order_relaxed);
  checkpoint_writes_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t CloneStore::enforce_budget(
    const std::vector<Session*>& sessions) {
  if (!enabled_) return 0;
  if (cfg_.max_resident_clones == 0) return 0;
  std::unordered_map<SessionId, Session*> by_id;
  by_id.reserve(sessions.size());
  for (Session* s : sessions) by_id.emplace(s->id(), s);
  std::size_t evicted = 0;
  // Clones whose checkpoint write failed this pass: their in-RAM copy is
  // the ONLY copy, so they must not be evicted — skip them and try the
  // next-oldest victim instead (bounded: each id enters the set at most
  // once, so the loop always terminates even with 100% write faults).
  std::set<SessionId> unpersistable;
  for (;;) {
    const std::size_t n = resident_.load(std::memory_order_relaxed);
    if (n <= cfg_.max_resident_clones) break;
    // LRU victim: the resident clone with the oldest touch (ties break on
    // the lower session id, for determinism).  Entries whose session is
    // not in this pass's set are skipped — a concurrent close already
    // queued their forget.
    SessionId victim = 0;
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    bool found = false;
    for (const auto& [id, e] : entries_) {
      if (!e.resident || by_id.find(id) == by_id.end()) continue;
      if (unpersistable.count(id)) continue;
      if (!found || e.last_used < oldest ||
          (e.last_used == oldest && id < victim)) {
        victim = id;
        oldest = e.last_used;
        found = true;
      }
    }
    if (!found) break;
    Entry& e = entries_[victim];
    Session* s = by_id[victim];
    if (e.stale || !e.on_disk) {
      try {
        checkpoint(*s, e);
      } catch (const std::exception& ex) {
        // Disk failure (real or injected): losing the budget battle for a
        // pass is recoverable, losing a user's adaptation is not.
        checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
        FUSE_LOG_WARN(
            "clone_store: checkpoint of session %zu failed (%s); keeping "
            "clone resident over budget",
            victim, ex.what());
        unpersistable.insert(victim);
        continue;
      }
    }
    s->adapted_slot().reset();  // the clone's RAM is released here
    e.resident = false;
    ++evicted;
    evictions_.fetch_add(1, std::memory_order_relaxed);
    resident_.fetch_sub(1, std::memory_order_relaxed);
    resident_bytes_.fetch_sub(clone_bytes_, std::memory_order_relaxed);
    FUSE_LOG_DEBUG("clone_store: evicted session %zu (%zu resident)", victim,
                   n - 1);
  }
  return evicted;
}

void CloneStore::persist(const std::vector<Session*>& sessions) {
  if (!enabled_) return;
  std::unordered_map<SessionId, Session*> by_id;
  by_id.reserve(sessions.size());
  for (Session* s : sessions) by_id.emplace(s->id(), s);
  for (auto& [id, e] : entries_) {
    if (!e.resident || !(e.stale || !e.on_disk)) continue;
    const auto it = by_id.find(id);
    if (it == by_id.end()) continue;  // closing session; forget is queued
    try {
      checkpoint(*it->second, e);
    } catch (const std::exception& ex) {
      // save_file replaces atomically, so a failed write leaves the
      // PREVIOUS checkpoint intact; the manifest below still lists it
      // (e.on_disk unchanged) — a stale adaptation state beats losing the
      // user entirely.
      checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
      FUSE_LOG_WARN("clone_store: persist checkpoint of session %zu failed "
                    "(%s)%s",
                    id, ex.what(),
                    e.on_disk ? "; manifest keeps its previous checkpoint"
                              : "; clone not persisted");
    }
  }
  // The manifest replaces atomically too: a crash anywhere in persist()
  // leaves the previous (manifest, checkpoints) generation readable —
  // checkpoints the old manifest names are never deleted by persist().
  std::vector<SessionId> on_disk_ids;
  for (const auto& [id, e] : entries_)
    if (e.on_disk) on_disk_ids.push_back(id);
  try {
    layout::write_manifest(cfg_.dir, std::move(on_disk_ids));
  } catch (const std::exception& ex) {
    // A failed manifest write leaves the previous generation's manifest in
    // place — restore() then recovers that older-but-consistent view (or
    // dir-scans if there never was one).  Persisting is best-effort at
    // shutdown; it must not take the process down with it.
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    FUSE_LOG_WARN("clone_store: manifest write failed (%s); previous "
                  "manifest generation left in place", ex.what());
  }
}

std::vector<SessionId> CloneStore::restore() {
  std::vector<SessionId> ids;
  if (!enabled_) return ids;
  // Candidate ids come from the manifest when it is complete; otherwise —
  // missing manifest (crash before its rename), torn or corrupt — from
  // scanning the directory for checkpoint files, so every valid
  // checkpoint on disk is still recovered.
  auto manifest = layout::read_manifest(cfg_.dir);
  if (manifest.status == layout::FileStatus::kInvalid) {
    restore_skipped_.fetch_add(1, std::memory_order_relaxed);
    FUSE_LOG_WARN("clone_store: torn or corrupt manifest in %s; falling "
                  "back to directory scan",
                  cfg_.dir.c_str());
  }
  const std::vector<SessionId> candidates =
      manifest.status == layout::FileStatus::kValid
          ? std::move(manifest.ids)
          : layout::scan_clone_ids(cfg_.dir);
  // Register only checkpoints that decode cleanly; skip (and count) the
  // rest instead of aborting the whole warm restart over one bad file.
  std::uint64_t skipped = 0;
  for (const SessionId id : candidates) {
    const std::string path = layout::clone_path(cfg_.dir, id);
    if (!layout::checkpoint_decodes(path, base_)) {
      ++skipped;
      FUSE_LOG_WARN("clone_store: skipping corrupt/missing checkpoint %s",
                    path.c_str());
      std::error_code ec;
      fs::remove(path, ec);  // best-effort: don't re-skip it every restart
      continue;
    }
    Entry e;
    e.on_disk = true;
    e.file_bytes = static_cast<std::size_t>(fs::file_size(path));
    entries_.emplace(id, e);
    tracked_.fetch_add(1, std::memory_order_relaxed);
    disk_bytes_.fetch_add(e.file_bytes, std::memory_order_relaxed);
    ids.push_back(id);
  }
  restore_skipped_.fetch_add(skipped, std::memory_order_relaxed);
  if (skipped > 0)
    FUSE_LOG_WARN("clone_store: restore skipped %llu corrupt/missing "
                  "checkpoint(s), recovered %zu",
                  static_cast<unsigned long long>(skipped), ids.size());
  FUSE_LOG_DEBUG("clone_store: restored %zu clone checkpoints", ids.size());
  return ids;
}

CloneStoreSnapshot CloneStore::stats_snapshot() const {
  CloneStoreSnapshot out;
  out.enabled = enabled_;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.rehydrations = rehydrations_.load(std::memory_order_relaxed);
  out.checkpoint_writes = checkpoint_writes_.load(std::memory_order_relaxed);
  out.tracked = tracked_.load(std::memory_order_relaxed);
  out.resident = resident_.load(std::memory_order_relaxed);
  out.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  out.disk_bytes = disk_bytes_.load(std::memory_order_relaxed);
  out.restore_skipped = restore_skipped_.load(std::memory_order_relaxed);
  out.rehydrate_failures = rehydrate_failures_.load(std::memory_order_relaxed);
  out.checkpoint_failures =
      checkpoint_failures_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace fuse::serve
