#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "core/finetune.h"
#include "data/featurize.h"
#include "serve/clone_store/clone_store.h"
#include "util/fault.h"

namespace fuse::serve {

namespace {
constexpr std::size_t kBlockFloats = fuse::data::kChannelsPerFrame *
                                     fuse::data::kGridH * fuse::data::kGridW;

/// NaN/Inf input guard: one corrupt sample must never reach the fusion
/// window (where it would poison up to 2M+1 downstream frames) or the
/// adaptation buffer (where it would corrupt the per-user clone).
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

/// Quarantine teardown: the session's clone (and its checkpoint) is
/// compromised or unwanted; from here on it serves the shared meta-init.
void drop_clone(Session& s, CloneStore* store) {
  s.adapted_slot().reset();
  s.adapt_buffer().clear();
  s.clear_fresh_labeled();
  if (store) store->forget(s.id());
}
}  // namespace

void Scheduler::featurize_current_window(Session& s, float* out) {
  const auto& win = s.window();
  window_ptrs_.clear();
  window_ptrs_.reserve(win.size());
  for (const auto& c : win) window_ptrs_.push_back(&c);
  predictor_->featurize_window(window_ptrs_.data(), window_ptrs_.size(), out,
                               feat_scratch_);
}

PassStats Scheduler::run_once(const std::vector<Session*>& sessions,
                              PassRecord& rec) {
  PassStats pass;
  // Per-stage recording is a single predictable branch per site when it
  // is disabled — the stats-idle zero-cost contract.
  const bool detail = detailed_stats_;
  // Clone-store pass bookkeeping first: advance the LRU clock and drain
  // forgets queued by close_session, so a closed session's checkpoint is
  // gone before anything below could resolve its id.
  CloneStore* store =
      (clone_store_ != nullptr && clone_store_->enabled()) ? clone_store_
                                                           : nullptr;
  if (store) store->begin_pass();
  // Collection: at most one frame per session per pass, until the batch is
  // full or every queue is empty.  The window slides and the sample is
  // featurized immediately, in the session's FIFO order.
  struct Collected {
    Item item;
    std::vector<float> block;
  };
  std::vector<Collected> collected;
  collected.reserve(max_batch_);
  bool any = true;
  while (any && collected.size() < max_batch_) {
    any = false;
    for (Session* s : sessions) {
      if (collected.size() >= max_batch_) break;
      // pop() consumes any pending recycle atomically with the queue
      // read, so a recycled session's streaming state is always reset
      // before the new subject's first frame touches the window.
      bool recycled = false;
      auto frame = s->pop(&recycled);
      if (recycled) {
        // The next subject must not inherit the previous subject's
        // adaptation: drop the checkpoint along with the in-RAM state.
        if (store) store->forget(s->id());
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
      if (level_ >= OverloadLevel::kShedDeadline) {
        const double age = mono_seconds() - frame->t_enqueue;
        if (age > shed_deadline_s_) {
          s->note_deadline_shed();
          ++pass.shed;
          if (detail) rec.telem.record(Stage::kShed, age);
          continue;
        }
      }
      if (detail)
        rec.telem.record(Stage::kQueueWait,
                         mono_seconds() - frame->t_enqueue);
      // A quarantined session serves from the shared meta-init: its clone
      // (possibly corrupted by the poison that got it quarantined) and
      // checkpoint are dropped, and rehydration is skipped below.
      const bool quarantined = s->quarantined();
      if (quarantined && s->adapted_model() != nullptr)
        drop_clone(*s, store);
      // Transparent rehydration: an evicted per-user clone is rebuilt
      // (meta-init + delta) before this frame can reach partitioning, so
      // eviction never silently downgrades a user to the shared model.
      if (store && !quarantined) {
        const double t_rehy = detail ? mono_seconds() : 0.0;
        if (store->ensure_resident(*s) && detail)
          rec.telem.record(Stage::kRehydrate, mono_seconds() - t_rehy);
      }
      // Raw-cube ingestion: run the DSP front-end (range/Doppler FFTs,
      // CFAR, angles) through the scheduler's reusable workspace, then
      // feed the extracted point cloud into the fusion window exactly
      // like a point-cloud frame.  A cube frame on a scheduler with no
      // processor is a wiring bug — serving poses computed from an empty
      // cloud would be indistinguishable from a valid frame.
      const fuse::radar::PointCloud* cloud = &frame->cloud;
      if (frame->cube != nullptr) {
        if (processor_ == nullptr)
          throw std::logic_error(
              "Scheduler: cube frame collected but no radar::Processor "
              "was configured");
        const double t_dsp = detail ? mono_seconds() : 0.0;
        processor_->process(*frame->cube, frame_ws_, cube_frame_);
        if (detail)
          rec.telem.record(Stage::kDspCube, mono_seconds() - t_dsp);
        // The ~1.5 MB cube payload is dead once the cloud is extracted;
        // free it now rather than carrying it through partitioning and
        // the batched forward.
        frame->cube.reset();
        cloud = &cube_frame_.cloud;
      }
      // Input guard: a NaN/Inf frame is rejected BEFORE it can enter the
      // fusion window (where it would poison up to window_frames
      // downstream predictions).  Repeated offenders are quarantined.
      if (!cloud_finite(*cloud)) {
        if (s->note_non_finite_frame() && s->adapted_model() != nullptr)
          drop_clone(*s, store);
        ++pass.rejected;
        continue;
      }
      const double t_feat = detail ? mono_seconds() : 0.0;
      s->advance_window(*cloud, predictor_->window_frames());
      Collected c;
      c.item.session = s;
      c.block.resize(kBlockFloats);
      featurize_current_window(*s, c.block.data());
      if (detail)
        rec.telem.record(Stage::kFeaturize, mono_seconds() - t_feat);
      // Ground-truth labels feed the per-user adaptation buffer; the
      // sample x is exactly what inference sees (the fused window).  A
      // non-finite label is rejected the same way as a non-finite frame —
      // one bad label must never corrupt a per-user clone — and
      // quarantined sessions buffer nothing (adaptation is disabled).
      if (frame->label && s->config().adapt.enabled && !quarantined) {
        if (!pose_finite(*frame->label)) {
          if (s->note_non_finite_label() && s->adapted_model() != nullptr)
            drop_clone(*s, store);
        } else {
          Session::LabeledSample ls;
          ls.x = c.block;
          const auto norm =
              predictor_->featurizer().normalize_pose(*frame->label);
          ls.y.assign(norm.begin(), norm.end());
          s->buffer_labeled(std::move(ls));
        }
      }
      c.item.frame = std::move(*frame);
      collected.push_back(std::move(c));
    }
  }
  if (collected.empty()) return pass;

  // Partition: frames batch together when they run the same model.
  // Shared-model frames batch across sessions; a session with an adapted
  // clone predicts with its own parameters, so its frames form a private
  // batch.
  struct Group {
    const fuse::nn::Module* model;
    std::vector<Item> items;
    std::vector<std::vector<float>> blocks;
  };
  std::vector<Group> groups;
  for (auto& c : collected) {
    const Session& s = *c.item.session;
    const fuse::nn::Module* model =
        s.adapted_model() != nullptr ? s.adapted_model() : shared_model_;
    auto g = std::find_if(groups.begin(), groups.end(),
                          [&](const Group& x) { return x.model == model; });
    if (g == groups.end())
      g = groups.insert(groups.end(), Group{model, {}, {}});
    g->items.push_back(std::move(c.item));
    g->blocks.push_back(std::move(c.block));
  }

  for (Group& g : groups) {
    const std::vector<Item>& items = g.items;
    fuse::tensor::Tensor x = predictor_->alloc_batch(items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
      std::memcpy(x.data() + i * kBlockFloats, g.blocks[i].data(),
                  kBlockFloats * sizeof(float));
    const double t_infer = detail ? mono_seconds() : 0.0;
    const auto poses = predictor_->predict(*g.model, x);
    const double now = mono_seconds();
    if (detail) rec.telem.record(Stage::kInfer, now - t_infer);
    for (std::size_t i = 0; i < items.size(); ++i) {
      Session& s = *items[i].session;
      // A frame popped just before its session was recycled must not
      // touch the new subject's tracker (its result is discarded anyway).
      const bool stale = items[i].frame.epoch != s.current_epoch();
      PoseResult r;
      r.seq = items[i].frame.seq;
      r.raw = poses[i];
      r.tracked = (s.config().tracking && !stale)
                      ? s.tracker().update(poses[i])
                      : poses[i];
      r.latency_s = now - items[i].frame.t_enqueue;
      r.t_ready = now;
      r.adapted_model = g.model != shared_model_;
      rec.latency.record(r.latency_s);
      s.push_result(std::move(r), items[i].frame.epoch);
    }
    ++pass.batches;
    pass.batched_frames += items.size();
  }

  // Online adaptation: at most one round per session per pass.
  for (Session* s : sessions) {
    const double t_adapt = detail ? mono_seconds() : 0.0;
    if (maybe_adapt(*s) && detail)
      rec.telem.record(Stage::kAdapt, mono_seconds() - t_adapt);
  }

  // End of pass: evict LRU clones until the resident set fits the store's
  // cap again (rehydration above may have overshot it briefly).
  if (store) store->enforce_budget(sessions);

  pass.served = collected.size();
  return pass;
}

bool Scheduler::maybe_adapt(Session& s) {
  const AdaptConfig& cfg = s.config().adapt;
  if (!cfg.enabled) return false;
  // Rung 1 — adaptation rounds are the most expensive optional work in a
  // pass; under overload they pause (the buffer keeps filling, so rounds
  // resume with fresh data once pressure clears).
  if (level_ >= OverloadLevel::kPauseAdapt) return false;
  if (s.quarantined()) return false;
  auto& buffer = s.adapt_buffer();
  if (buffer.size() < cfg.min_samples) return false;
  // An evicted clone must come back BEFORE the first-round check below:
  // cloning the shared model for a session whose adapted clone sits on
  // disk would silently discard the user's adaptation (and the
  // round-cadence gate must see the true adapted state).
  if (clone_store_ != nullptr && clone_store_->enabled())
    clone_store_->ensure_resident(s);
  if (s.fresh_labeled() < cfg.round_every && s.adapted_model() != nullptr)
    return false;

  // First round: clone the shared meta-initialization for this user.
  if (s.adapted_model() == nullptr) s.adapted_slot() = shared_model_->clone();

  fuse::tensor::Tensor x = predictor_->alloc_batch(buffer.size());
  fuse::tensor::Tensor y({buffer.size(), fuse::human::kNumCoords});
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    std::memcpy(x.data() + i * kBlockFloats, buffer[i].x.data(),
                kBlockFloats * sizeof(float));
    std::memcpy(y.data() + i * fuse::human::kNumCoords, buffer[i].y.data(),
                fuse::human::kNumCoords * sizeof(float));
  }
  float loss = 0.0f;
  for (std::size_t step = 0; step < cfg.steps_per_round; ++step)
    loss = fuse::core::sgd_step(*s.adapted_slot(), x, y, cfg.lr,
                                cfg.grad_clip);
  // A non-finite loss means the clone's parameters are compromised (every
  // buffered sample was finite, so this is numeric blow-up, not input
  // corruption): quarantine the session and discard the clone AND its
  // checkpoint — a poisoned delta must never survive to a warm restart.
  if (!std::isfinite(loss)) {
    s.note_adapt_failed();
    drop_clone(s, (clone_store_ != nullptr && clone_store_->enabled())
                      ? clone_store_
                      : nullptr);
    return false;
  }
  s.clear_fresh_labeled();
  s.note_adapt_round(loss);
  // The round moved the clone past its last checkpoint: register it with
  // the store (first round) and mark the on-disk delta stale.
  if (clone_store_ != nullptr && clone_store_->enabled())
    clone_store_->note_adapted(s);
  return true;
}

}  // namespace fuse::serve
