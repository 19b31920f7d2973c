#include "serve/session.h"

#include <algorithm>
#include <utility>

namespace fuse::serve {

bool Session::enqueue(const fuse::radar::PointCloud& cloud,
                      const fuse::human::Pose* label, double now_s) {
  InFrame f;
  f.cloud = cloud;
  if (label) f.label = *label;
  return enqueue_frame(std::move(f), now_s);
}

bool Session::enqueue_cube(fuse::radar::RadarCube cube,
                           const fuse::human::Pose* label, double now_s) {
  InFrame f;
  f.cube = std::make_unique<fuse::radar::RadarCube>(std::move(cube));
  if (label) f.label = *label;
  return enqueue_frame(std::move(f), now_s);
}

bool Session::enqueue_frame(InFrame f, double now_s) {
  std::lock_guard<std::mutex> lock(mu_);
  bool evicted = false;
  if (queue_.size() >= cfg_.queue_capacity) {
    if (cfg_.drop_policy == DropPolicy::kDropNewest) {
      ++queue_rejected_;
      return false;
    }
    ++queue_evicted_;
    queue_.pop_front();  // kDropOldest: evict to keep the stream fresh
    evicted = true;      // net in-flight change is zero: -1 evicted, +1 new
  }
  f.t_enqueue = now_s;
  f.seq = next_seq_++;
  f.epoch = recycle_epoch_;
  queue_.push_back(std::move(f));
  queue_hwm_ = std::max(queue_hwm_, queue_.size());
  ++frames_in_;
  // An eviction nets zero queued frames (-1 evicted, +1 new), so the
  // gauges only tick on a genuine depth increase.
  if (!evicted) add_in_flight(1);
  return true;
}

std::vector<PoseResult> Session::take_results() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PoseResult> out(results_.begin(), results_.end());
  results_.clear();
  return out;
}

std::size_t Session::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::optional<Session::InFrame> Session::pop(bool* recycled) {
  std::lock_guard<std::mutex> lock(mu_);
  *recycled = recycle_pending_;
  recycle_pending_ = false;
  if (queue_.empty()) return std::nullopt;
  InFrame f = std::move(queue_.front());
  queue_.pop_front();
  sub_in_flight(1);
  return f;
}

void Session::advance_window(fuse::radar::PointCloud cloud,
                             std::size_t window_frames) {
  window_.push_back(std::move(cloud));
  while (window_.size() > window_frames) window_.pop_front();
}

void Session::push_result(PoseResult r, std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != recycle_epoch_) {  // stale subject: discard
    ++results_stale_;
    return;
  }
  if (results_.size() >= cfg_.results_capacity) {
    results_.pop_front();
    ++results_dropped_;
  }
  results_.push_back(std::move(r));
  ++frames_out_;
}

void Session::buffer_labeled(std::span<const float> x,
                             std::span<const float> y) {
  adapt_buffer_.push_back({{x.begin(), x.end()}, {y.begin(), y.end()}});
  while (adapt_buffer_.size() > cfg_.adapt.buffer_capacity)
    adapt_buffer_.pop_front();
  ++fresh_labeled_;
  std::lock_guard<std::mutex> lock(mu_);
  adapt_buffered_ = adapt_buffer_.size();
}

void Session::note_adapt_round(float loss) {
  fresh_labeled_ = 0;
  std::lock_guard<std::mutex> lock(mu_);
  has_adapted_ = true;
  ++adapt_rounds_;
  last_adapt_loss_ = loss;
}

void Session::drop_adaptation() {
  adapted_.reset();
  adapt_buffer_.clear();
  fresh_labeled_ = 0;
  std::lock_guard<std::mutex> lock(mu_);
  has_adapted_ = false;
  adapt_buffered_ = 0;
}

void Session::note_rehydrated() {
  std::lock_guard<std::mutex> lock(mu_);
  has_adapted_ = true;
}

void Session::request_recycle() {
  std::lock_guard<std::mutex> lock(mu_);
  sub_in_flight(queue_.size());
  queue_.clear();
  results_.clear();
  next_seq_ = 0;  // the new subject's stream counts from zero
  recycle_pending_ = true;
  ++recycle_epoch_;
  queue_hwm_ = 0;  // the high-water mark describes the new subject only
  // Quarantine and the counters that gate it describe the previous
  // subject's sensor, not the session slot: the new subject starts clean.
  quarantined_ = false;
  non_finite_frames_ = 0;
  non_finite_labels_ = 0;
  has_adapted_ = false;
  adapt_buffered_ = 0;
  adapt_rounds_ = 0;
  last_adapt_loss_ = 0.0f;
}

void Session::reset_stream_state() {
  // Runs on the scheduler thread, the sole owner of the streaming state
  // below; only drop_adaptation's stats mirrors take the lock.
  window_.clear();
  tracker_.reset();
  drop_adaptation();
}

void Session::note_migration_rejected() {
  std::lock_guard<std::mutex> lock(mu_);
  ++migration_rejected_;
}

std::deque<Session::InFrame> Session::drain_queue() {
  std::lock_guard<std::mutex> lock(mu_);
  sub_in_flight(queue_.size());
  std::deque<InFrame> out;
  out.swap(queue_);
  return out;
}

void Session::requeue(std::deque<InFrame> frames) {
  if (frames.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  add_in_flight(frames.size());
  for (auto it = frames.rbegin(); it != frames.rend(); ++it)
    queue_.push_front(std::move(*it));
  queue_hwm_ = std::max(queue_hwm_, queue_.size());
}

void Session::rebind_shard_gauge(std::atomic<std::size_t>* shard) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = queue_.size();
  if (n != 0 && shard_in_flight_ != nullptr)
    shard_in_flight_->fetch_sub(n, std::memory_order_relaxed);
  shard_in_flight_ = shard;
  if (n != 0 && shard_in_flight_ != nullptr)
    shard_in_flight_->fetch_add(n, std::memory_order_relaxed);
}

void Session::note_admission_rejected() {
  std::lock_guard<std::mutex> lock(mu_);
  ++admission_rejected_;
}

void Session::note_deadline_shed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++deadline_shed_;
}

bool Session::note_non_finite_frame() {
  std::lock_guard<std::mutex> lock(mu_);
  ++non_finite_frames_;
  const bool was = quarantined_;
  if (cfg_.quarantine_after != 0 &&
      non_finite_frames_ + non_finite_labels_ >= cfg_.quarantine_after)
    quarantined_ = true;
  return quarantined_ && !was;
}

bool Session::note_non_finite_label() {
  std::lock_guard<std::mutex> lock(mu_);
  ++non_finite_labels_;
  const bool was = quarantined_;
  if (cfg_.quarantine_after != 0 &&
      non_finite_frames_ + non_finite_labels_ >= cfg_.quarantine_after)
    quarantined_ = true;
  return quarantined_ && !was;
}

void Session::note_adapt_failed() {
  std::lock_guard<std::mutex> lock(mu_);
  if (cfg_.quarantine_after != 0) quarantined_ = true;
}

SessionStats Session::stats_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionStats s;
  s.id = id_;
  s.frames_in = frames_in_;
  s.frames_dropped = queue_evicted_ + queue_rejected_;
  s.queue_evicted = queue_evicted_;
  s.queue_rejected = queue_rejected_;
  s.frames_out = frames_out_;
  s.results_dropped = results_dropped_;
  s.results_stale = results_stale_;
  s.queue_depth = queue_.size();
  s.queue_depth_hwm = queue_hwm_;
  s.adapt_state = (!cfg_.adapt.enabled || quarantined_)
                      ? AdaptState::kShared
                  : has_adapted_ ? AdaptState::kAdapted
                                 : AdaptState::kCollecting;
  s.adapt_rounds = adapt_rounds_;
  s.adapt_buffered = adapt_buffered_;
  s.last_adapt_loss = last_adapt_loss_;
  s.admission_rejected = admission_rejected_;
  s.deadline_shed = deadline_shed_;
  s.non_finite_frames = non_finite_frames_;
  s.non_finite_labels = non_finite_labels_;
  s.migration_rejected = migration_rejected_;
  s.quarantined = quarantined_;
  return s;
}

}  // namespace fuse::serve
