#include "serve/server.h"

#include <algorithm>
#include <deque>
#include <new>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "nn/sequential.h"
#include "serve/clone_store/layout.h"
#include "serve/shard.h"
#include "serve/telemetry.h"
#include "util/fault.h"
#include "util/log.h"

namespace fuse::serve {

const char* submit_result_name(SubmitResult r) {
  switch (r) {
    case SubmitResult::kAccepted: return "accepted";
    case SubmitResult::kQuarantined: return "quarantined";
    case SubmitResult::kQueueFull: return "queue_full";
    case SubmitResult::kAdmissionRejected: return "admission_rejected";
    case SubmitResult::kUnknownSession: return "unknown_session";
    case SubmitResult::kNoProcessor: return "no_processor";
    case SubmitResult::kMigrating: return "migrating";
    case SubmitResult::kMalformedCube: return "malformed_cube";
  }
  return "?";
}

void validate_session_config(const SessionConfig& cfg) {
  if (cfg.queue_capacity == 0)
    throw std::invalid_argument(
        "SessionConfig: queue_capacity must be >= 1");
  if (cfg.results_capacity == 0)
    throw std::invalid_argument(
        "SessionConfig: results_capacity must be >= 1");
  if (cfg.adapt.enabled) {
    if (cfg.adapt.min_samples == 0)
      throw std::invalid_argument(
          "SessionConfig: adapt.min_samples must be >= 1 when adaptation "
          "is enabled");
    if (cfg.adapt.buffer_capacity < cfg.adapt.min_samples)
      throw std::invalid_argument(
          "SessionConfig: adapt.buffer_capacity must hold at least "
          "adapt.min_samples labeled frames");
    if (cfg.adapt.round_every == 0 || cfg.adapt.steps_per_round == 0)
      throw std::invalid_argument(
          "SessionConfig: adapt.round_every and adapt.steps_per_round "
          "must be >= 1");
  }
}

const fuse::nn::Module& shared_head(const fuse::nn::Module& model) {
  const auto* seq = dynamic_cast<const fuse::nn::Sequential*>(&model);
  if (seq == nullptr || seq->size() == 0 ||
      seq->child(seq->size() - 1).num_params() == 0)
    throw std::invalid_argument(
        "serve: the shared model must be an nn::Sequential whose last "
        "child (the per-user head) has parameters");
  return seq->child(seq->size() - 1);
}

void ServeConfig::validate() const {
  if (max_sessions == 0)
    throw std::invalid_argument("ServeConfig: max_sessions must be >= 1");
  if (max_batch == 0)
    throw std::invalid_argument("ServeConfig: max_batch must be >= 1");
  if (num_shards == 0)
    throw std::invalid_argument("ServeConfig: num_shards must be >= 1");
  if (num_shards > max_sessions)
    throw std::invalid_argument(
        "ServeConfig: num_shards exceeds max_sessions (shards beyond the "
        "session cap can never receive a session)");
  validate_session_config(session);
}

Server::Server(const fuse::core::Predictor* predictor,
               const fuse::nn::Module* shared_model, ServeConfig cfg)
    : predictor_(predictor), cfg_(std::move(cfg)) {
  if (!predictor_ || !predictor_->valid())
    throw std::invalid_argument("serve::Server: predictor not fitted");
  if (!shared_model)
    throw std::invalid_argument("serve::Server: null shared model");
  (void)shared_head(*shared_model);  // throws unless a Sequential with a head
  cfg_.validate();
  const auto& model = static_cast<const fuse::nn::Sequential&>(*shared_model);
  shards_.reserve(cfg_.num_shards);
  for (std::size_t k = 0; k < cfg_.num_shards; ++k)
    shards_.push_back(
        std::make_unique<Shard>(predictor_, &model, cfg_, k, &in_flight_));
}

Server::~Server() { stop(); }

SessionId Server::open_session() { return open_session(cfg_.session); }

SessionId Server::open_session(SessionConfig scfg) {
  validate_session_config(scfg);
  std::lock_guard<std::mutex> lock(open_mu_);
  if (session_count_unlocked() >= cfg_.max_sessions)
    throw std::runtime_error("serve::Server: max_sessions reached");
  const SessionId id = next_id_++;
  shards_[shard_of(id)]->open_session(id, std::move(scfg));
  return id;
}

void Server::close_session(SessionId id) {
  // Close under the owning shard's pass lock, like a migration.  A move
  // holds both shards' pass locks until its commit, so once we hold the
  // lock and shard_of() still names this shard, no move of `id` is in
  // flight and none can re-attach it elsewhere after the close.
  for (;;) {
    const std::size_t k = shard_of(id);
    auto lock = shards_[k]->lock_pass();
    if (shard_of(id) != k) continue;  // moved while we waited: follow it
    shards_[k]->close_session(id);
    clear_shard_override(id);  // freed slot: the next tenant starts at home
    return;
  }
}

void Server::recycle_session(SessionId id) {
  shards_[shard_of(id)]->recycle_session(id);
}

std::size_t Server::session_count() const {
  return session_count_unlocked();
}

std::size_t Server::session_count_unlocked() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->session_count();
  return total;
}

template <typename Submit>
SubmitResult Server::route_submit(SessionId id, Submit&& submit) {
  // A live session answers kUnknownSession only when a concurrent move
  // detached it between shard_of() and the shard's lookup.  The commit
  // records the new placement before it detaches, so a changed shard_of()
  // means "retry there"; an unchanged one means the id really is gone.
  std::size_t k = shard_of(id);
  for (;;) {
    const SubmitResult r = submit(*shards_[k]);
    if (r != SubmitResult::kUnknownSession) return r;
    const std::size_t now = shard_of(id);
    if (now == k) return r;
    k = now;
  }
}

SubmitResult Server::submit_frame(SessionId id,
                                  const fuse::radar::PointCloud& cloud,
                                  const fuse::human::Pose* label) {
  return route_submit(id, [&](Shard& sh) {
    return sh.submit_frame(id, cloud, label);
  });
}

SubmitResult Server::submit_cube(SessionId id, fuse::radar::RadarCube cube,
                                 const fuse::human::Pose* label) {
  // Shard::submit_cube moves from `cube` only once it has found the
  // session, so a retried submit still carries the payload.
  return route_submit(id, [&](Shard& sh) {
    return sh.submit_cube(id, std::move(cube), label);
  });
}

std::vector<PoseResult> Server::poll_results(SessionId id) {
  return shards_[shard_of(id)]->poll_results(id);
}

// ------------------------------------------------- placement / migration --

std::size_t Server::shard_of(SessionId id) const {
  // Fast path: with no overrides the relaxed counter skips the lock, so
  // the un-migrated server pays exactly the old pure-hash cost.
  if (override_count_.load(std::memory_order_relaxed) != 0) {
    std::lock_guard<std::mutex> lock(map_mu_);
    const auto it = shard_overrides_.find(id);
    if (it != shard_overrides_.end()) return it->second;
  }
  return layout::home_shard(id, shards_.size());
}

void Server::set_shard_override(SessionId id, std::size_t shard) {
  std::lock_guard<std::mutex> lock(map_mu_);
  if (shard == layout::home_shard(id, shards_.size()))
    shard_overrides_.erase(id);  // home placement needs no table entry
  else
    shard_overrides_[id] = shard;
  override_count_.store(shard_overrides_.size(), std::memory_order_relaxed);
}

void Server::clear_shard_override(SessionId id) {
  std::lock_guard<std::mutex> lock(map_mu_);
  shard_overrides_.erase(id);
  override_count_.store(shard_overrides_.size(), std::memory_order_relaxed);
}

bool Server::migrate_session(SessionId id, std::size_t target_shard) {
  if (target_shard >= shards_.size()) return false;
  const std::size_t src = shard_of(id);
  if (!shards_[src]->find(id)) return false;
  if (src == target_shard) return true;
  // Both serving modes run the move inline under both shards' pass locks,
  // taken in index order.  A shard pass (its thread, or run_once) only
  // ever takes its own pass lock, so this order cannot form a cycle.
  auto lock_a = shards_[std::min(src, target_shard)]->lock_pass();
  auto lock_b = shards_[std::max(src, target_shard)]->lock_pass();
  // A concurrent migrate may have moved the session while we waited on
  // the locks; only proceed when it still lives on a locked shard.
  const std::size_t now_on = shard_of(id);
  if (now_on != src && now_on != target_shard) return false;
  return execute_migration(id, target_shard);
}

bool Server::execute_migration(SessionId id, std::size_t target_shard) {
  const std::size_t src = shard_of(id);
  if (src == target_shard) return true;  // a concurrent move got there first
  Shard& from = *shards_[src];
  Shard& to = *shards_[target_shard];
  auto s = from.find(id);
  if (!s) return false;  // closed since the request
  const double t0 = mono_seconds();
  std::deque<Session::InFrame> frames;
  s->begin_migration();
  try {
    frames = s->drain_queue();
    // An evicted head must travel with the session: pull it resident
    // before the move.  The head object then moves with the Session.
    from.store().ensure_resident(*s);
    if (fuse::util::fault_fire(fuse::util::FaultPoint::kMigrationKill))
      throw std::runtime_error("migration killed mid-move");
    if (s->adapted_head() != nullptr &&
        fuse::util::fault_fire(fuse::util::FaultPoint::kMigrationOom))
      throw std::bad_alloc();
    if (fuse::util::fault_fire(fuse::util::FaultPoint::kTargetShardCrash))
      throw std::runtime_error("target shard crashed adopting the session");
  } catch (...) {
    // Whatever threw before the commit point (an injected fault, a failed
    // rehydration, std::bad_alloc), the session never left its source
    // shard: put the drained frames back (order preserved) and unfreeze
    // submits.
    s->requeue(std::move(frames));
    s->end_migration();
    from.note_migration_failure();
    from.record_migration(mono_seconds() - t0);
    return false;
  }
  // Commit point: the steps below only relink the session (the source's
  // checkpoint removal is best-effort), so it is never observed half-moved.
  from.store().forget(id);
  to.attach_session(s);
  set_shard_override(id, target_shard);  // route new submits to the target
  from.detach_session(id);
  s->rebind_shard_gauge(to.gauge());
  s->requeue(std::move(frames));  // replay the drained backlog, in order
  if (s->adapted_head() != nullptr) to.store().note_adapted(*s);
  s->end_migration();
  from.note_migration_out();
  to.note_migration_in();
  from.record_migration(mono_seconds() - t0);
  return true;
}

std::size_t Server::run_once() {
  std::size_t served = 0;
  for (auto& sh : shards_) served += sh->run_once();
  return served;
}

std::size_t Server::drain() {
  // Migrations run inline, so a shard's queues are only ever refilled from
  // outside the server: draining each until empty drains the whole plane.
  std::size_t total = 0;
  for (auto& sh : shards_) total += sh->drain();
  return total;
}

void Server::start() {
  if (running_.exchange(true)) return;
  for (auto& sh : shards_) sh->start();
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  for (auto& sh : shards_) sh->stop();
}

namespace {

[[noreturn]] void throw_reshard_needed(const std::string& dir,
                                       const std::string& detail) {
  throw std::logic_error(
      "serve::Server::restore_clones: the clone store at '" + dir +
      "' was persisted under a different shard layout (" + detail +
      ") — changing num_shards is an offline data migration: run "
      "`tools/reshard --to <num_shards> " + dir + "` first");
}

}  // namespace

void Server::persist_clones() {
  for (auto& sh : shards_) sh->persist_clones();
  const std::string& dir = cfg_.clone_store.dir;
  if (dir.empty() || shards_.size() < 2) return;
  // Persist the placement table next to the per-shard stores so migrated
  // sessions restore onto the shard that holds their checkpoint.  Its
  // shard count doubles as the topology stamp restore_clones checks.
  layout::ShardMap map;
  map.shards = shards_.size();
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    map.pins = shard_overrides_;
  }
  try {
    layout::write_map(dir, map, true);
  } catch (const std::exception& e) {
    // Same best-effort contract as clone checkpoints: a failed map write
    // leaves the previous generation in place (stale beats absent), and a
    // torn one reads as invalid, so restore trusts the checkpoints.
    FUSE_LOG_DEBUG("serve: shard map write failed: %s", e.what());
  }
}

std::vector<SessionId> Server::restore_clones(const SessionConfig& scfg) {
  validate_session_config(scfg);
  std::vector<SessionId> out;
  std::lock_guard<std::mutex> lock(open_mu_);
  const std::string& dir = cfg_.clone_store.dir;
  const std::size_t n = shards_.size();
  layout::ShardMap map;
  if (!dir.empty()) {
    map = layout::read_map(dir);
    if (map.status == layout::FileStatus::kValid && map.shards != n)
      throw_reshard_needed(dir, "its shard map says shards=" +
                                    std::to_string(map.shards) +
                                    ", this server runs " +
                                    std::to_string(n));
    // Layout sanity independent of the map file (covers torn maps and
    // pre-map stores): shard dirs holding data beyond our count, or a
    // flat single-shard store under a multi-shard server (and vice
    // versa), mean the data belongs to a different topology.
    const auto sharded = layout::shards_with_data(dir);
    if (!sharded.empty() && (n == 1 || sharded.back() >= n))
      throw_reshard_needed(dir, "checkpoints on shard " +
                                    std::to_string(sharded.back()) +
                                    " under a " + std::to_string(n) +
                                    "-shard server");
    if (n > 1 && layout::has_store_data(dir))
      throw_reshard_needed(dir, "flat single-shard checkpoints under a " +
                                    std::to_string(n) + "-shard server");
  }
  std::unordered_set<SessionId> seen;
  for (std::size_t k = 0; k < n; ++k) {
    const auto ids = shards_[k]->restore_clones(scfg);
    for (const SessionId id : ids) {
      if (!seen.insert(id).second)
        throw_reshard_needed(dir, "session " + std::to_string(id) +
                                      " has checkpoints on two shards "
                                      "(mixed layout)");
      if (layout::home_shard(id, n) != k) {
        // Off-home checkpoint: legal only when the placement table pins
        // it here (a migrated session) or the table was torn — then the
        // on-disk placement is the best available truth.
        const auto pin = map.pins.find(id);
        const bool pinned =
            map.status == layout::FileStatus::kInvalid ||
            (pin != map.pins.end() && pin->second == k);
        if (!pinned)
          throw_reshard_needed(
              dir, "checkpoint for session " + std::to_string(id) +
                       " found on shard " + std::to_string(k) +
                       " but hashes to shard " +
                       std::to_string(layout::home_shard(id, n)) +
                       " with no shard-map entry");
        set_shard_override(id, k);
      }
      // Fresh ids must never collide with a restored one.
      next_id_ = std::max(next_id_, id + 1);
      out.push_back(id);
    }
  }
  if (session_count_unlocked() > cfg_.max_sessions)
    throw std::runtime_error("serve::Server: max_sessions reached");
  std::sort(out.begin(), out.end());
  FUSE_LOG_DEBUG("serve: restored %zu clone sessions across %zu shards",
                 out.size(), shards_.size());
  return out;
}

namespace {

/// Merges every shard's raw stats (in shard order) into one snapshot;
/// the caller fills in the global in-flight gauge.
ServeStats derive_stats(const std::vector<ShardRawStats>& raws,
                        const ServeConfig& cfg) {
  ServeStats out;
  out.shards = raws.size();
  LatencyHistogram latency;
  StageStats telem;
  for (const auto& raw : raws) {
    const ShardStatsRow& row = raw.row;
    out.per_shard.push_back(row);
    out.per_session.insert(out.per_session.end(), raw.sessions.begin(),
                           raw.sessions.end());

    latency.merge(raw.latency);
    telem.merge(raw.telem);
    out.batches += row.batches;
    out.overload_level = std::max(out.overload_level, row.overload_level);
    out.overload_transitions += row.overload_transitions;
    // Each completed move is one adoption, so Σ in = completed moves.
    out.migrations += row.migrations_in;
    out.migration_failures += row.migration_failures;

    out.clone_store.enabled |= raw.clone_store.enabled;
    out.clone_store.hits += raw.clone_store.hits;
    out.clone_store.misses += raw.clone_store.misses;
    out.clone_store.evictions += raw.clone_store.evictions;
    out.clone_store.rehydrations += raw.clone_store.rehydrations;
    out.clone_store.checkpoint_writes += raw.clone_store.checkpoint_writes;
    out.clone_store.tracked += raw.clone_store.tracked;
    out.clone_store.resident += raw.clone_store.resident;
    out.clone_store.resident_bytes += raw.clone_store.resident_bytes;
    out.clone_store.disk_bytes += raw.clone_store.disk_bytes;
    out.clone_store.restore_skipped += raw.clone_store.restore_skipped;
    out.clone_store.rehydrate_failures += raw.clone_store.rehydrate_failures;
    out.clone_store.checkpoint_failures +=
        raw.clone_store.checkpoint_failures;
  }
  // Per-session rows sorted by id across shards (shards already sort
  // their slice, but ids interleave between shards).
  std::sort(out.per_session.begin(), out.per_session.end(),
            [](const SessionStats& a, const SessionStats& b) {
              return a.id < b.id;
            });
  out.sessions = out.per_session.size();
  std::uint64_t batched_frames = 0;
  for (const auto& raw : raws) batched_frames += raw.batched_frames;
  for (const auto& ss : out.per_session) {
    out.frames_in += ss.frames_in;
    out.frames_out += ss.frames_out;
    out.frames_dropped += ss.frames_dropped;
    out.queue_evicted += ss.queue_evicted;
    out.queue_rejected += ss.queue_rejected;
    out.results_evicted += ss.results_dropped;
    out.results_stale += ss.results_stale;
    out.queue_depth_hwm = std::max(out.queue_depth_hwm, ss.queue_depth_hwm);
    out.admission_rejected += ss.admission_rejected;
    out.deadline_shed += ss.deadline_shed;
    out.non_finite_frames += ss.non_finite_frames;
    out.non_finite_labels += ss.non_finite_labels;
    out.migration_rejected += ss.migration_rejected;
    if (ss.quarantined) ++out.quarantined_sessions;
  }
  // Queue drops over frames offered (accepted + rejected): the serving
  // plane's backpressure ratio, gated by bench/check_regression.py.
  const auto offered = out.frames_in + out.queue_rejected;
  out.drop_rate = offered ? static_cast<double>(out.frames_dropped) /
                                static_cast<double>(offered)
                          : 0.0;
  // Scheduler-side deadline sheds over the same denominator (gated
  // separately from drop_rate: sheds only exist at degradation rung 2).
  out.shed_rate = offered ? static_cast<double>(out.deadline_shed) /
                                static_cast<double>(offered)
                          : 0.0;
  out.overload_level_name =
      overload_level_name(static_cast<OverloadLevel>(out.overload_level));
  out.mean_batch = out.batches ? static_cast<double>(batched_frames) /
                                     static_cast<double>(out.batches)
                               : 0.0;
  out.latency_p50_ms = latency.p50() * 1e3;
  out.latency_p95_ms = latency.p95() * 1e3;
  out.latency_p99_ms = latency.p99() * 1e3;
  out.latency_mean_ms = latency.mean() * 1e3;
  out.latency_max_ms = latency.max() * 1e3;
  // Derived per-stage views, computed at read time from the merged
  // histograms (never on the hot path).
  out.detailed = cfg.detailed_stats;
  out.stages.reserve(kNumStages);
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const auto stage = static_cast<Stage>(i);
    out.stages.push_back(snapshot_stage(stage, telem.histogram(stage)));
  }
  return out;
}

}  // namespace

ServeStats Server::stats() const {
  std::vector<ShardRawStats> raws;
  raws.reserve(shards_.size());
  for (const auto& sh : shards_) raws.push_back(sh->raw_stats());
  ServeStats out = derive_stats(raws, cfg_);
  out.in_flight = in_flight_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace fuse::serve
