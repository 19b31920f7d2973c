#include "serve/shard.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "serve/clone_store/layout.h"
#include "util/fault.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace fuse::serve {

Shard::Shard(const fuse::core::Predictor* predictor,
             const fuse::nn::Module* shared_model, const ServeConfig& cfg,
             std::size_t index, std::atomic<std::size_t>* global_in_flight)
    : predictor_(predictor),
      shared_model_(shared_model),
      cfg_(cfg),
      index_(index),
      global_in_flight_(global_in_flight),
      scheduler_(predictor, shared_model, cfg.max_batch, cfg.processor) {
  // Per-shard clone store: shards must never share checkpoint files, so
  // each one owns its own shard dir.  The 1-shard layout stays flat —
  // backward compatible with checkpoints persisted before sharding.
  if (!cfg_.clone_store.dir.empty())
    cfg_.clone_store.dir = layout::shard_dir(cfg_.clone_store.dir, index_,
                                             cfg_.num_shards);
  scheduler_.set_detailed_stats(cfg_.detailed_stats);
  clone_store_.configure(cfg_.clone_store, shared_model_);
  scheduler_.set_clone_store(&clone_store_);
  detector_ = OverloadDetector(cfg_.overload);
  scheduler_.set_shed_deadline(cfg_.overload.shed_deadline_s);
}

Shard::~Shard() { stop(); }

void Shard::open_session(SessionId id, SessionConfig scfg) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto s = std::make_shared<Session>(id, std::move(scfg));
  s->bind_in_flight(global_in_flight_, &shard_in_flight_);
  sessions_.emplace(id, std::move(s));
  FUSE_LOG_DEBUG("serve: opened session %zu on shard %zu", id, index_);
}

void Shard::close_session(SessionId id) {
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.erase(id);
  }
  // Scheduler-side cleanup (entry + checkpoint file) happens at the start
  // of the next pass; until then the store never dereferences the session.
  clone_store_.request_forget(id);
}

void Shard::recycle_session(SessionId id) {
  auto s = find(id);
  if (!s) return;
  s->request_recycle();
  // After the request, so the pass that clears the flag pops the session
  // after its recycle is pending.
  recycle_pending_.store(true);
}

std::size_t Shard::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

std::shared_ptr<Session> Shard::find(SessionId id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Session>> Shard::snapshot_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::vector<std::shared_ptr<Session>> out;
  out.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) out.push_back(s);
  // Deterministic scheduling order regardless of hash-map iteration.
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a->id() < b->id(); });
  return out;
}

void Shard::wake_scheduler() {
  if (!running_) return;
  // The flag is set under wake_mu_, so the scheduler cannot miss a frame
  // submitted between its last empty pass and its wait.
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    work_pending_ = true;
  }
  wake_cv_.notify_one();
}

namespace {
/// Sensor-corruption fault: poke a quiet NaN into the payload.  The
/// scheduler's input guards, not the producer, must catch it — exactly as
/// with a real glitching sensor.
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
}  // namespace

template <typename Enqueue>
SubmitResult Shard::submit(SessionId id, const fuse::human::Pose* label,
                           Enqueue&& enqueue) {
  auto s = find(id);
  if (!s) return SubmitResult::kUnknownSession;
  if (s->migrating()) {
    // Mid-move: the queue is being drained for replay on the target shard;
    // enqueueing here would strand the frame.  Retry-after semantics — the
    // producer resubmits once the move commits.
    s->note_migration_rejected();
    return SubmitResult::kMigrating;
  }
  if (cfg_.max_in_flight != 0 &&
      global_in_flight_->load(std::memory_order_relaxed) >=
          cfg_.max_in_flight) {
    s->note_admission_rejected();
    return SubmitResult::kAdmissionRejected;
  }
  fuse::human::Pose bad_label;
  if (label != nullptr &&
      fuse::util::fault_fire(fuse::util::FaultPoint::kCorruptLabel)) {
    bad_label = *label;
    bad_label.joints[0].x = kNaN;
    label = &bad_label;
  }
  const bool enqueued = enqueue(*s, label, mono_seconds());
  wake_scheduler();
  if (!enqueued) return SubmitResult::kQueueFull;
  // Quarantined sessions still serve (from the shared meta-init), so the
  // frame IS enqueued — the code just surfaces the sensor problem.
  return s->quarantined() ? SubmitResult::kQuarantined
                          : SubmitResult::kAccepted;
}

SubmitResult Shard::submit_frame(SessionId id,
                                 const fuse::radar::PointCloud& cloud,
                                 const fuse::human::Pose* label) {
  return submit(id, label, [&](Session& s, const fuse::human::Pose* lbl,
                               double now) {
    if (fuse::util::fault_fire(fuse::util::FaultPoint::kCorruptCloud)) {
      fuse::radar::PointCloud bad = cloud;
      if (bad.points.empty()) bad.points.emplace_back();
      bad.points[0].y = kNaN;
      return s.enqueue(bad, lbl, now);
    }
    return s.enqueue(cloud, lbl, now);
  });
}

SubmitResult Shard::submit_cube(SessionId id, fuse::radar::RadarCube&& cube,
                                const fuse::human::Pose* label) {
  if (cfg_.processor == nullptr)  // no DSP front-end wired
    return SubmitResult::kNoProcessor;
  // Refused at the door: the DSP would throw on the scheduler thread.
  if (!cfg_.processor->accepts(cube)) return SubmitResult::kMalformedCube;
  // The cube is moved from only inside the enqueue step, i.e. once the
  // session is found.
  return submit(id, label, [&](Session& s, const fuse::human::Pose* lbl,
                               double now) {
    if (fuse::util::fault_fire(fuse::util::FaultPoint::kCorruptCube) &&
        cube.n_virtual() > 0)
      cube.at(0, 0, 0) = {kNaN, kNaN};
    return s.enqueue_cube(std::move(cube), lbl, now);
  });
}

std::vector<PoseResult> Shard::poll_results(SessionId id) {
  auto s = find(id);
  if (!s) return {};
  auto out = s->take_results();
  // Result-poll stage: how long finished results sat waiting for the
  // consumer.  Recorded here (consumer thread) under the stats lock — the
  // same merge point the scheduler's pass-local telemetry goes through.
  if (cfg_.detailed_stats && !out.empty()) {
    const double now = mono_seconds();
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (const auto& r : out)
      telem_.record(Stage::kResultPoll, now - r.t_ready);
  }
  return out;
}

std::size_t Shard::run_once() {
  // The pass lock excludes the migration driver for the whole tick: a
  // session is never moved out from under a running pass.  Uncontended in
  // steady state (one lock/unlock per tick).
  std::lock_guard<std::mutex> pass_lock(pass_mu_);
  const bool overload = cfg_.overload.enabled;
  const double t0 = overload ? mono_seconds() : 0.0;
  // An idle pass — no queued frame, no closed session's checkpoint to
  // forget, no recycle to consume — has nothing for the scheduler: it skips
  // the session snapshot, the per-session pops and the PassRecord merge,
  // and only feeds the detector and the depth series below.
  const bool recycles = recycle_pending_.exchange(false);
  std::optional<PassRecord> rec;
  PassStats pass;
  if (recycles || shard_in_flight_.load(std::memory_order_relaxed) != 0 ||
      clone_store_.forgets_pending()) {
    // Every kernel of the pass runs on this thread (see shard.h).
    const fuse::util::InlineScope inline_pass;
    const auto snapshot = snapshot_sessions();
    std::vector<Session*> sessions;
    sessions.reserve(snapshot.size());
    for (const auto& s : snapshot) sessions.push_back(s.get());
    // The pass runs lock-free into local telemetry; the cumulative stats
    // are only locked for the merge, so stats() never waits on an
    // inference pass and a snapshot always observes whole passes.
    pass = scheduler_.run_once(sessions, rec.emplace());
    // A pass that served frames may have filled its batch before popping
    // every session, i.e. before consuming every recycle: keep the flag
    // for the next pass.
    if (recycles && pass.served > 0) recycle_pending_.store(true);
  }
  if (overload) {
    // Feed the detector this pass's tick latency and the post-pass queue
    // backlog — the SHARD's own gauge, not the global admission gauge, so
    // a hot shard engages even when the rest of the fleet is idle — then
    // arm the ladder rung the NEXT pass runs at.  Idle passes feed it too,
    // which is how an escalated shard steps back down once its queues
    // drain.  All on this shard's scheduling thread — the detector itself
    // is single-threaded state.
    const auto level = detector_.update(
        shard_in_flight_.load(std::memory_order_relaxed),
        mono_seconds() - t0);
    scheduler_.set_overload_level(level);
    overload_level_.store(static_cast<int>(level), std::memory_order_relaxed);
    overload_transitions_.store(detector_.transitions(),
                                std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (rec) {
    latency_.merge(rec->latency);
    telem_.merge(rec->telem);
    batches_ += pass.batches;
    batched_frames_ += pass.batched_frames;
  }
  // Queue depth over time: one post-pass gauge sample per tick, idle or
  // not, into the bounded ring (the export shows the curve, not just the
  // high-water mark).
  depth_series_.record(shard_in_flight_.load(std::memory_order_relaxed));
  return pass.served;
}

std::size_t Shard::drain() {
  std::size_t total = 0;
  while (const std::size_t served = run_once()) total += served;
  return total;
}

void Shard::start() {
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { scheduler_loop(); });
}

void Shard::stop() {
  if (!running_) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  thread_.join();
  running_ = false;
}

void Shard::scheduler_loop() {
  for (;;) {
    const std::size_t served = run_once();
    if (served > 0) {
      // A busy shard re-takes its pass lock the moment it releases it, so
      // a migration driver blocked in lock_pass() could starve for as long
      // as producers keep the queues full.  Step aside until it holds the
      // lock.
      while (pass_waiters_.load(std::memory_order_relaxed) != 0)
        std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    if (stop_requested_) {
      // Final sweep so frames submitted just before stop() are served.
      lock.unlock();
      drain();
      return;
    }
    // An idle shard blocks here until a producer flags new work; the
    // predicate makes the untimed wait immune to lost notifies.
    wake_cv_.wait(lock, [this] { return work_pending_ || stop_requested_; });
    work_pending_ = false;
  }
}

void Shard::persist_clones() {
  if (running_)
    throw std::logic_error("Server::persist_clones: stop() the server first");
  if (!clone_store_.enabled()) return;
  // The store's scheduler-thread contract holds here: no scheduler thread
  // is running, so this caller IS the scheduler side.  Queued forgets are
  // drained first so closed sessions never reach the manifest.
  clone_store_.begin_pass();
  const auto snapshot = snapshot_sessions();
  std::vector<Session*> sessions;
  sessions.reserve(snapshot.size());
  for (const auto& s : snapshot) sessions.push_back(s.get());
  clone_store_.persist(sessions);
}

std::vector<SessionId> Shard::restore_clones(const SessionConfig& scfg) {
  if (running_)
    throw std::logic_error("Server::restore_clones: call before start()");
  const auto ids = clone_store_.restore();
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const SessionId id : ids) {
    if (sessions_.count(id))
      throw std::logic_error("Server::restore_clones: session id " +
                             std::to_string(id) + " already open");
    auto s = std::make_shared<Session>(id, scfg);
    s->bind_in_flight(global_in_flight_, &shard_in_flight_);
    sessions_.emplace(id, std::move(s));
  }
  FUSE_LOG_DEBUG("serve: shard %zu restored %zu clone sessions", index_,
                 ids.size());
  return ids;
}

ShardRawStats Shard::raw_stats() const {
  ShardRawStats out;
  ShardStatsRow& row = out.row;
  const auto snapshot = snapshot_sessions();
  out.sessions.reserve(snapshot.size());
  for (const auto& s : snapshot) {
    out.sessions.push_back(s->stats_snapshot());
    row.frames_in += out.sessions.back().frames_in;
    row.frames_out += out.sessions.back().frames_out;
  }
  row.shard = index_;
  row.sessions = out.sessions.size();
  row.in_flight = shard_in_flight_.load(std::memory_order_relaxed);
  row.overload_level = overload_level_.load(std::memory_order_relaxed);
  row.overload_transitions =
      overload_transitions_.load(std::memory_order_relaxed);
  row.migrations_in = migrations_in_.load(std::memory_order_relaxed);
  row.migrations_out = migrations_out_.load(std::memory_order_relaxed);
  row.migration_failures =
      migration_failures_.load(std::memory_order_relaxed);
  out.clone_store = clone_store_.stats_snapshot();
  std::lock_guard<std::mutex> lock(stats_mu_);
  out.latency = latency_;
  out.telem = telem_;
  row.batches = batches_;
  row.latency_p99_ms = latency_.p99() * 1e3;
  row.queue_depth_series = depth_series_.snapshot();
  out.batched_frames = batched_frames_;
  return out;
}

std::shared_ptr<Session> Shard::detach_session(SessionId id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  auto s = std::move(it->second);
  sessions_.erase(it);
  return s;
}

void Shard::attach_session(std::shared_ptr<Session> s) {
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.emplace(s->id(), std::move(s));
  }
  // The session may carry a recycle requested on its old shard.
  recycle_pending_.store(true);
}

void Shard::record_migration(double seconds) {
  if (!cfg_.detailed_stats) return;
  std::lock_guard<std::mutex> lock(stats_mu_);
  telem_.record(Stage::kMigrate, seconds);
}

}  // namespace fuse::serve
