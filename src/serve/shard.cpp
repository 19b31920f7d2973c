#include "serve/shard.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/finetune.h"
#include "data/featurize.h"
#include "serve/clone_store/layout.h"
#include "util/fault.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace fuse::serve {

Shard::Shard(const fuse::core::Predictor* predictor,
             const fuse::nn::Sequential* shared_model, const ServeConfig& cfg,
             std::size_t index, std::atomic<std::size_t>* global_in_flight)
    : predictor_(predictor),
      shared_model_(shared_model),
      shared_head_(&shared_model->child(shared_model->size() - 1)),
      cfg_(cfg),
      index_(index),
      global_in_flight_(global_in_flight),
      detector_(cfg.overload) {
  // Per-shard clone store: shards must never share checkpoint files, so
  // each one owns its own shard dir.  The 1-shard layout stays flat —
  // backward compatible with checkpoints persisted before sharding.
  if (!cfg_.clone_store.dir.empty())
    cfg_.clone_store.dir = layout::shard_dir(cfg_.clone_store.dir, index_,
                                             cfg_.num_shards);
  clone_store_.configure(cfg_.clone_store, shared_head_);
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
  // same merge point a pass's pass-local telemetry goes through.
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
  // forget, no recycle to consume — has nothing to serve: it skips the
  // session snapshot, the per-session pops and the PassRecord merge, and
  // only feeds the detector and the depth series below.
  const bool recycles = recycle_pending_.exchange(false);
  std::optional<PassRecord> rec;
  std::size_t served = 0;
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
    served = serve_pass(sessions, rec.emplace());
    // A pass that served frames may have filled its batch before popping
    // every session, i.e. before consuming every recycle: keep the flag
    // for the next pass.
    if (recycles && served > 0) recycle_pending_.store(true);
  }
  if (overload) {
    // Feed the detector this pass's tick latency and the post-pass queue
    // backlog — the SHARD's own gauge, not the global admission gauge, so
    // a hot shard engages even when the rest of the fleet is idle — which
    // arms the ladder rung the NEXT pass runs at.  Idle passes feed it
    // too, which is how an escalated shard steps back down once its
    // queues drain.  All on this shard's scheduling thread — the detector
    // itself is single-threaded state.
    const auto level = detector_.update(
        shard_in_flight_.load(std::memory_order_relaxed),
        mono_seconds() - t0);
    overload_level_.store(static_cast<int>(level), std::memory_order_relaxed);
    overload_transitions_.store(detector_.transitions(),
                                std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (rec) {
    latency_.merge(rec->latency);
    telem_.merge(rec->telem);
    batches_ += rec->batches;
    batched_frames_ += rec->batched_frames;
  }
  // Queue depth over time: one post-pass gauge sample per tick, idle or
  // not, into the bounded ring (the export shows the curve, not just the
  // high-water mark).
  depth_series_.record(shard_in_flight_.load(std::memory_order_relaxed));
  return served;
}

namespace {
constexpr std::size_t kRowFloats = fuse::data::kChannelsPerFrame *
                                   fuse::data::kGridH * fuse::data::kGridW;

/// NaN/Inf input guard: one corrupt sample must never reach the fusion
/// window (where it would poison up to 2M+1 downstream frames) or the
/// adaptation buffer (where it would corrupt the per-user head).
bool cloud_finite(const fuse::radar::PointCloud& cloud) {
  for (const auto& p : cloud.points)
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z) ||
        !std::isfinite(p.doppler) || !std::isfinite(p.intensity))
      return false;
  return true;
}

bool pose_finite(const fuse::human::Pose& pose) {
  for (const auto& j : pose.joints)
    if (!std::isfinite(j.x) || !std::isfinite(j.y) || !std::isfinite(j.z))
      return false;
  return true;
}
}  // namespace

void Shard::drop_clone(Session& s) {
  s.drop_adaptation();
  clone_store_.forget(s.id());
}

std::size_t Shard::serve_pass(const std::vector<Session*>& sessions,
                              PassRecord& rec) {
  const bool detail = cfg_.detailed_stats;
  // Clone-store pass bookkeeping first: advance the LRU clock and drain
  // forgets queued by close_session, so a closed session's checkpoint is
  // gone before anything below could resolve its id.
  clone_store_.begin_pass();
  collect(sessions, rec);
  const std::size_t n = collected_.size();
  if (n == 0) return 0;
  infer_batch(rec);

  // Online adaptation: at most one round per session per pass.
  for (Session* s : sessions) {
    const double t_adapt = detail ? mono_seconds() : 0.0;
    if (maybe_adapt(*s) && detail)
      rec.telem.record(Stage::kAdapt, mono_seconds() - t_adapt);
  }
  // End of pass: evict LRU heads until the resident set fits the store's
  // cap again (rehydration above may have overshot it briefly).
  clone_store_.enforce_budget(sessions);
  return n;
}

void Shard::collect(const std::vector<Session*>& sessions,
                    PassRecord& rec) {
  // Per-stage recording is a single predictable branch per site when it
  // is disabled — the stats-idle zero-cost contract.
  const bool detail = cfg_.detailed_stats;
  const OverloadLevel level = detector_.level();
  const std::size_t max_batch = cfg_.max_batch;
  collected_.clear();
  rows_.clear();
  // At most one frame per session per sweep, until the batch is full or
  // every queue is empty.  The window slides and the frame is featurized
  // immediately, in the session's FIFO order.
  bool any = true;
  while (any && collected_.size() < max_batch) {
    any = false;
    for (Session* s : sessions) {
      if (collected_.size() >= max_batch) break;
      // pop() consumes any pending recycle atomically with the queue
      // read, so a recycled session's streaming state is always reset
      // before the new subject's first frame touches the window.
      bool recycled = false;
      auto frame = s->pop(&recycled);
      if (recycled) {
        // The next subject must not inherit the previous subject's
        // adaptation: drop the checkpoint along with the in-RAM state.
        clone_store_.forget(s->id());
        s->reset_stream_state();
      }
      if (!frame) continue;
      any = true;
      // Injected latency spike: stalls the pass exactly where a real
      // scheduler hiccup (page fault, CPU contention) would, so chaos runs
      // exercise the overload detector's tick-latency signal.
      if (fuse::util::fault_fire(fuse::util::FaultPoint::kLatencySpike))
        std::this_thread::sleep_for(std::chrono::duration<double>(
            fuse::util::fault_spike_seconds()));
      // Rung 2 — deadline shedding: a frame that went stale in the queue
      // is dropped HERE, before the DSP/featurize/infer stages spend
      // anything on it.  Freshness wins over completeness under overload
      // (same rationale as DropPolicy::kDropOldest, applied server-side).
      if (level >= OverloadLevel::kShedDeadline) {
        const double age = mono_seconds() - frame->t_enqueue;
        if (age > cfg_.overload.shed_deadline_s) {
          s->note_deadline_shed();
          if (detail) rec.telem.record(Stage::kShed, age);
          continue;
        }
      }
      if (detail)
        rec.telem.record(Stage::kQueueWait,
                         mono_seconds() - frame->t_enqueue);
      // A quarantined session serves from the shared head: its own head
      // (possibly corrupted by the poison that got it quarantined) and
      // checkpoint are dropped, and rehydration is skipped below.
      const bool quarantined = s->quarantined();
      if (quarantined && s->adapted_head() != nullptr) drop_clone(*s);
      // Transparent rehydration: an evicted per-user head is reloaded from
      // its checkpoint before this frame is batched, so eviction
      // never silently downgrades a user to the shared head.
      if (!quarantined) {
        const double t_rehy = detail ? mono_seconds() : 0.0;
        if (clone_store_.ensure_resident(*s) && detail)
          rec.telem.record(Stage::kRehydrate, mono_seconds() - t_rehy);
      }
      // Raw-cube ingestion: run the DSP front-end (range/Doppler FFTs,
      // CFAR, angles) through the shard's reusable workspace, then feed
      // the extracted point cloud into the fusion window exactly like a
      // point-cloud frame.  A cube frame on a shard with no processor is
      // a wiring bug — serving poses computed from an empty cloud would
      // be indistinguishable from a valid frame.
      if (frame->cube != nullptr) {
        if (cfg_.processor == nullptr)
          throw std::logic_error(
              "Shard: cube frame collected but no radar::Processor was "
              "configured");
        const double t_dsp = detail ? mono_seconds() : 0.0;
        cfg_.processor->process(*frame->cube, frame_ws_, cube_frame_);
        if (detail)
          rec.telem.record(Stage::kDspCube, mono_seconds() - t_dsp);
        frame->cloud = cube_frame_.cloud;
      }
      // Input guard: a NaN/Inf frame is rejected BEFORE it can enter the
      // fusion window (where it would poison up to window_frames
      // downstream predictions).  Repeated offenders are quarantined.
      if (!cloud_finite(frame->cloud)) {
        if (s->note_non_finite_frame()) drop_clone(*s);
        continue;
      }
      // Featurize once, straight into this frame's batch row.
      const double t_feat = detail ? mono_seconds() : 0.0;
      s->advance_window(std::move(frame->cloud), predictor_->window_frames());
      window_ptrs_.clear();
      for (const auto& c : s->window()) window_ptrs_.push_back(&c);
      rows_.resize(rows_.size() + kRowFloats);
      float* row = rows_.data() + rows_.size() - kRowFloats;
      predictor_->featurize_window(window_ptrs_.data(), window_ptrs_.size(),
                                   row, feat_scratch_);
      if (detail)
        rec.telem.record(Stage::kFeaturize, mono_seconds() - t_feat);
      // Ground-truth labels feed the per-user adaptation buffer once the
      // trunk has run (infer_batch).  A non-finite label is rejected the
      // same way as a non-finite frame — one bad label must never corrupt
      // a per-user head — and quarantined sessions buffer nothing
      // (adaptation is disabled).
      std::optional<std::array<float, fuse::human::kNumCoords>> label;
      if (frame->label && s->config().adapt.enabled && !quarantined) {
        if (!pose_finite(*frame->label)) {
          if (s->note_non_finite_label()) drop_clone(*s);
        } else {
          label = predictor_->featurizer().normalize_pose(*frame->label);
        }
      }
      collected_.push_back(
          {s, frame->seq, frame->epoch, frame->t_enqueue, label});
    }
  }
}

void Shard::infer_batch(PassRecord& rec) {
  const std::size_t n = collected_.size();
  const double t_infer = cfg_.detailed_stats ? mono_seconds() : 0.0;
  fuse::tensor::Tensor x = predictor_->alloc_batch(n);
  std::memcpy(x.data(), rows_.data(), rows_.size() * sizeof(float));
  // The frozen trunk runs once over every frame of the pass.
  fuse::tensor::Tensor trunk =
      shared_model_->infer_children(0, shared_model_->size() - 1, x);
  // The shared head runs over the whole batch; a frame whose session
  // holds an adapted head runs again through it.  Heads are resolved only
  // now: a later frame may have quarantined a session (drop_clone).
  auto poses = predictor_->predict(*shared_head_, trunk);
  const std::size_t width = trunk.numel() / n;
  fuse::tensor::Tensor row({1, width});
  for (std::size_t i = 0; i < n; ++i) {
    const fuse::nn::Module* head = collected_[i].session->adapted_head();
    if (head == nullptr) continue;
    std::memcpy(row.data(), trunk.data() + i * width, width * sizeof(float));
    poses[i] = predictor_->predict(*head, row).front();
  }
  const double now = mono_seconds();
  if (cfg_.detailed_stats) rec.telem.record(Stage::kInfer, now - t_infer);
  for (std::size_t i = 0; i < n; ++i) {
    const Collected& c = collected_[i];
    Session& s = *c.session;
    // A frame popped just before its session was recycled must not touch
    // the new subject's tracker (its result is discarded anyway).
    const bool stale = c.epoch != s.current_epoch();
    PoseResult r;
    r.seq = c.seq;
    r.raw = poses[i];
    r.tracked = (s.config().tracking && !stale) ? s.tracker().update(poses[i])
                                                : poses[i];
    r.latency_s = now - c.t_enqueue;
    r.t_ready = now;
    r.adapted_model = s.adapted_head() != nullptr;
    rec.latency.record(r.latency_s);
    s.push_result(std::move(r), c.epoch);
    // A labeled frame joins its session's buffer as its trunk row, unless
    // a later frame quarantined the session (its buffer is dropped) or the
    // frame is stale (the next pass resets the buffer).
    if (c.label && !stale && !s.quarantined())
      s.buffer_labeled({trunk.data() + i * width, width}, *c.label);
  }
  ++rec.batches;
  rec.batched_frames += n;
}

bool Shard::maybe_adapt(Session& s) {
  const AdaptConfig& cfg = s.config().adapt;
  if (!cfg.enabled) return false;
  // Rung 1 — adaptation rounds are the most expensive optional work in a
  // pass; under overload they pause (the buffer keeps filling, so rounds
  // resume with fresh data once pressure clears).
  if (detector_.level() >= OverloadLevel::kPauseAdapt) return false;
  if (s.quarantined()) return false;
  const auto& buffer = s.adapt_buffer();
  if (buffer.size() < cfg.min_samples) return false;
  // An evicted head must come back BEFORE the first-round check below:
  // cloning the shared head for a session whose adapted head sits on
  // disk would silently discard the user's adaptation (and the
  // round-cadence gate must see the true adapted state).
  clone_store_.ensure_resident(s);
  if (s.fresh_labeled() < cfg.round_every && s.adapted_head() != nullptr)
    return false;

  // First round: clone the shared head for this user.
  if (s.adapted_head() == nullptr) s.adapted_slot() = shared_head_->clone();

  // The buffer holds trunk activations, so a round trains the head alone.
  const std::size_t width = buffer.front().x.size();
  adapt_x_.resize({buffer.size(), width});
  adapt_y_.resize({buffer.size(), fuse::human::kNumCoords});
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    std::memcpy(adapt_x_.data() + i * width, buffer[i].x.data(),
                width * sizeof(float));
    std::memcpy(adapt_y_.data() + i * fuse::human::kNumCoords,
                buffer[i].y.data(), fuse::human::kNumCoords * sizeof(float));
  }
  float loss = 0.0f;
  for (std::size_t step = 0; step < cfg.steps_per_round; ++step)
    loss = fuse::core::sgd_step(*s.adapted_slot(), adapt_tape_, adapt_x_,
                                adapt_y_, cfg.lr, cfg.grad_clip);
  // A non-finite loss means the head's parameters are compromised (every
  // buffered sample was finite, so this is numeric blow-up, not input
  // corruption): quarantine the session and discard the head AND its
  // checkpoint — a poisoned head must never survive to a warm restart.
  if (!std::isfinite(loss)) {
    s.note_adapt_failed();
    drop_clone(s);
    return false;
  }
  s.note_adapt_round(loss);
  // The round moved the head past its last checkpoint: register it with
  // the store (first round) and mark the on-disk checkpoint stale.
  clone_store_.note_adapted(s);
  return true;
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
