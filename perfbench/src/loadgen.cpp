#include "loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <numeric>
#include <thread>


namespace perfbench {

using fuse::serve::mono_seconds;

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

void sleep_until_mono(double t) {
  const double dt = t - mono_seconds();
  if (dt > 0) std::this_thread::sleep_for(std::chrono::duration<double>(dt));
}
}  // namespace

SyncDriver::SyncDriver(fuse::serve::Server& server) {
  thread_.submit([this, &server] {
    while (running_.load(std::memory_order_relaxed))
      if (server.run_once() == 0)
        std::this_thread::sleep_for(std::chrono::duration<double>(kIdleSleepS));
  });
}

SyncDriver::~SyncDriver() {
  running_.store(false, std::memory_order_relaxed);
  thread_.wait_idle();
}

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

LoadGen::LoadGen(fuse::serve::Server& server, const Workload& workload,
                 std::vector<fuse::serve::SessionId> ids, std::size_t adapting)
    : server_(server),
      workload_(workload),
      ids_(std::move(ids)),
      adapting_(adapting),
      next_k_(ids_.size(), 0),
      by_seq_(ids_.size()) {
  // Send phases within the period follow the golden-ratio sequence: evenly
  // spread for any session count, and the same for every seed, so a seed
  // changes what is sent but not when.
  phase_.resize(ids_.size());
  for (std::size_t s = 0; s < phase_.size(); ++s)
    phase_[s] = std::fmod(0.6180339887498949 * static_cast<double>(s), 1.0);
  frames_.reserve(ids_.size() * 64);
}

void LoadGen::send(std::size_t s, double t_sched) {
  FrameRecord f;
  f.session = static_cast<std::uint32_t>(s);
  f.k = next_k_[s]++;
  f.input = workload_.input_of(s, f.k);
  f.t_sched = t_sched;
  const double t0 = mono_seconds();
  const auto r = workload_.submit(server_, ids_[s], f.input, s < adapting_);
  f.t_sent = mono_seconds();
  f.submit_s = f.t_sent - t0;
  f.accepted = fuse::serve::accepted(r);
  f.traced = tracing_;
  if (tracing_) tracer_->span("submit", Track::kLoadgen, t0, f.t_sent, s, f.k);
  if (f.accepted) {
    ++accepted_;
    f.seq = by_seq_[s].size();
    by_seq_[s].push_back(frames_.size());
  }
  frames_.push_back(std::move(f));
}

void LoadGen::poll(std::size_t s) {
  const double t0 = mono_seconds();
  auto results = server_.poll_results(ids_[s]);
  const double t1 = mono_seconds();
  poll_s_.push_back(t1 - t0);
  if (tracing_) tracer_->span("poll", Track::kLoadgen, t0, t1);
  for (auto& r : results) {
    if (r.seq >= by_seq_[s].size()) continue;  // never sent: check fails
    FrameRecord& f = frames_[by_seq_[s][r.seq]];
    served_ += !f.served;
    f.served = true;
    f.t_ready = r.t_ready;
    f.raw = r.raw;
    f.adapted_model = r.adapted_model;
    if (f.traced)
      tracer_->span("result", Track::kServer, f.t_sent, f.t_ready, s, f.k);
  }
}

bool LoadGen::warm_up(double timeout_s) {
  // Every session fills its fusion window; adapting sessions also fill
  // their adaptation buffer (labelled frames), so the open-loop run starts
  // in the steady state: full buffer, one round every round_every frames.
  // Adapting session a sends a * round_every / adapting extra frames, which
  // staggers the sessions' rounds evenly over the round cadence.
  //
  // Frames go out in steps; each step waits until every frame sent so far
  // is served.  While read-only sessions still need frames, a step spreads
  // its sends over one period at the sessions' phases, as the open loop
  // does, so warm-up adds no queueing burst to the server's statistics.
  // The remaining adaptation-buffer frames go out in queue-sized bursts.
  const fuse::serve::AdaptConfig adapt;
  constexpr std::size_t kAdaptBurst = 8;
  const double period = frame_period_s();
  std::vector<std::size_t> need(ids_.size(), workload_.window_frames());
  for (std::size_t s = 0; s < adapting_ && s < need.size(); ++s)
    need[s] = std::max(need[s], adapt.buffer_capacity +
                                    s * adapt.round_every / adapting_);
  const auto order = phase_order();
  const double deadline = mono_seconds() + timeout_s;
  for (;;) {
    bool spread = false;
    for (std::size_t s = adapting_; s < need.size(); ++s)
      spread = spread || need[s] > 0;
    const double base = mono_seconds();
    bool sent = false;
    for (const std::size_t s : order) {
      const std::size_t n = std::min(s < adapting_ ? kAdaptBurst : 1, need[s]);
      if (n == 0) continue;
      const double t = spread ? base + phase_[s] * period : mono_seconds();
      sleep_until_mono(t);
      for (std::size_t i = 0; i < n; ++i) send(s, t);
      need[s] -= n;
      sent = true;
    }
    if (!sent) return true;
    while (served_ < accepted_) {
      if (mono_seconds() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      for (std::size_t s = 0; s < ids_.size(); ++s) poll(s);
    }
  }
}

std::vector<std::size_t> LoadGen::phase_order() const {
  std::vector<std::size_t> order(ids_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return phase_[a] < phase_[b];
  });
  return order;
}

double LoadGen::run(double seconds, Tracer* tracer) {
  const double period = frame_period_s();
  // Sessions fire in phase order every period.
  const auto order = phase_order();
  tracer_ = tracer;
  const double t_start = mono_seconds() + period;
  const double t_end = t_start + seconds;
  const auto sample = [this](double t) {
    sleep_until_mono(t);
    samples_.push_back({cpu_ticks(), process_cpu_s(), thread_cpu_s()});
  };
  samples_.clear();
  for (std::size_t round = 0;; ++round) {
    const double base = t_start + static_cast<double>(round) * period;
    if (base >= t_end) break;
    sample(base);
    for (const std::size_t s : order) {
      const double t_sched = base + phase_[s] * period;
      if (t_sched >= t_end) break;
      sleep_until_mono(t_sched);
      tracing_ = tracer != nullptr &&
                 static_cast<long>((t_sched - t_start) / kTraceBlockS) % 2 == 1;
      // Collect the session's finished results before its next frame,
      // well inside SessionConfig::results_capacity.
      poll(s);
      send(s, t_sched);
    }
  }
  sample(t_end);
  tracing_ = false;
  return t_start;
}

void LoadGen::close_out(double timeout_s) {
  const double deadline = mono_seconds() + timeout_s;
  for (;;) {
    for (std::size_t s = 0; s < ids_.size(); ++s) poll(s);
    const auto c = server_counts();
    if (served_ + c.dropped + c.shed >= accepted_ || mono_seconds() > deadline)
      return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

ServerCounts LoadGen::server_counts() const {
  const auto st = server_.stats();
  ServerCounts c;
  // queue_rejected frames (kDropNewest) already count as refused through
  // their SubmitResult, so only evictions are drops here.
  c.dropped = st.queue_evicted;
  c.shed = st.deadline_shed;
  c.in_flight = st.in_flight;
  return c;
}

std::vector<bool> LoadGen::adapting_mask() const {
  std::vector<bool> m(ids_.size(), false);
  for (std::size_t s = 0; s < adapting_ && s < m.size(); ++s) m[s] = true;
  return m;
}

}  // namespace perfbench
