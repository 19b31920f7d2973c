#include "serve/stats.h"

#include <algorithm>
#include <cmath>

namespace fuse::serve {

std::size_t LatencyHistogram::bin_index(double seconds) {
  if (seconds < kMinLatency) return 0;
  const double decades = std::log10(seconds / kMinLatency);
  const auto bin = static_cast<std::size_t>(decades * kBinsPerDecade);
  return std::min(bin, kBins - 1);
}

double LatencyHistogram::bin_lower(std::size_t bin) {
  return kMinLatency *
         std::pow(10.0, static_cast<double>(bin) / kBinsPerDecade);
}

double LatencyHistogram::bin_upper(std::size_t bin) {
  return kMinLatency *
         std::pow(10.0, static_cast<double>(bin + 1) / kBinsPerDecade);
}

void LatencyHistogram::record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  ++bins_[bin_index(seconds)];
  ++count_;
  sum_ += seconds;
  max_ = std::max(max_, seconds);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < kBins; ++b) bins_[b] += other.bins_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void LatencyHistogram::reset() {
  bins_.fill(0);
  count_ = 0;
  sum_ = 0.0;
  max_ = 0.0;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBins; ++b) {
    if (bins_[b] == 0) continue;
    const auto next = seen + bins_[b];
    if (static_cast<double>(next) >= target) {
      // Interpolate inside the bin.  Bin 0 collects everything below
      // kMinLatency, so its lower edge is 0, not bin_lower(0) == 1e-6 —
      // otherwise a histogram of all-fast samples reports p50 >= 1 us.
      // The upper edge is clamped to the observed max (which also bounds
      // the open-ended overflow bin).
      const double lo = b == 0 ? 0.0 : bin_lower(b);
      const double cap = std::max(lo, max_);
      const double hi = std::min(b + 1 == kBins ? cap : bin_upper(b), cap);
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(bins_[b]);
      return lo + frac * (hi - lo);
    }
    seen = next;
  }
  return max_;
}

const char* adapt_state_name(AdaptState s) {
  switch (s) {
    case AdaptState::kShared: return "shared";
    case AdaptState::kCollecting: return "collecting";
    case AdaptState::kAdapted: return "adapted";
  }
  return "?";
}

void stage_to_json(util::JsonWriter& w, const StageSnapshot& st) {
  w.begin_object().field("stage", st.stage).field("count", st.count)
      .field("total_ms", st.total_ms).field("mean_ms", st.mean_ms)
      .field("p50_ms", st.p50_ms).field("p95_ms", st.p95_ms)
      .field("p99_ms", st.p99_ms).field("max_ms", st.max_ms)
      .end_object();
}

std::string stats_to_json(const ServeStats& s) {
  util::JsonWriter w;
  w.begin_object().field("sessions", s.sessions)
      .field("frames_in", s.frames_in).field("frames_out", s.frames_out)
      .field("frames_dropped", s.frames_dropped);
  w.key("drops").begin_object()
      .field("queue_evicted", s.queue_evicted)
      .field("queue_rejected", s.queue_rejected)
      .field("results_evicted", s.results_evicted)
      .field("results_stale", s.results_stale).end_object();
  w.field("drop_rate", s.drop_rate)
      .field("queue_depth_hwm", s.queue_depth_hwm);
  w.key("robustness").begin_object()
      .field("admission_rejected", s.admission_rejected)
      .field("deadline_shed", s.deadline_shed)
      .field("non_finite_frames", s.non_finite_frames)
      .field("non_finite_labels", s.non_finite_labels)
      .field("quarantined_sessions", s.quarantined_sessions)
      .field("migrations", s.migrations)
      .field("migration_failures", s.migration_failures)
      .field("migration_rejected", s.migration_rejected).end_object();
  w.field("shed_rate", s.shed_rate).field("in_flight", s.in_flight);
  w.key("overload").begin_object().field("level", s.overload_level)
      .field("level_name", s.overload_level_name)
      .field("transitions", s.overload_transitions).end_object();
  w.field("shards", s.shards).key("per_shard").begin_array();
  for (const auto& sh : s.per_shard) {
    w.begin_object().field("shard", sh.shard).field("sessions", sh.sessions)
        .field("frames_in", sh.frames_in).field("frames_out", sh.frames_out)
        .field("in_flight", sh.in_flight).field("batches", sh.batches)
        .field("overload_level", sh.overload_level)
        .field("overload_transitions", sh.overload_transitions)
        .field("latency_p99_ms", sh.latency_p99_ms)
        .field("migrations_in", sh.migrations_in)
        .field("migrations_out", sh.migrations_out)
        .field("migration_failures", sh.migration_failures)
        .key("queue_depth_series").begin_array();
    for (const std::size_t depth : sh.queue_depth_series) w.value(depth);
    w.end_array().end_object();
  }
  w.end_array().field("batches", s.batches).field("mean_batch", s.mean_batch);
  w.key("latency_ms").begin_object().field("p50", s.latency_p50_ms)
      .field("p95", s.latency_p95_ms).field("p99", s.latency_p99_ms)
      .field("mean", s.latency_mean_ms).field("max", s.latency_max_ms)
      .end_object();
  w.field("detailed", s.detailed).key("stages").begin_array();
  for (const auto& st : s.stages) stage_to_json(w, st);
  const auto& cs = s.clone_store;
  w.end_array().key("clone_store").begin_object()
      .field("enabled", cs.enabled).field("hits", cs.hits)
      .field("misses", cs.misses).field("evictions", cs.evictions)
      .field("rehydrations", cs.rehydrations)
      .field("checkpoint_writes", cs.checkpoint_writes)
      .field("tracked", cs.tracked).field("resident", cs.resident)
      .field("resident_bytes", cs.resident_bytes)
      .field("disk_bytes", cs.disk_bytes)
      .field("restore_skipped", cs.restore_skipped)
      .field("rehydrate_failures", cs.rehydrate_failures)
      .field("checkpoint_failures", cs.checkpoint_failures).end_object();
  w.key("per_session").begin_array();
  for (const auto& ps : s.per_session)
    w.begin_object().field("id", ps.id).field("frames_in", ps.frames_in)
        .field("frames_out", ps.frames_out)
        .field("frames_dropped", ps.frames_dropped)
        .field("queue_evicted", ps.queue_evicted)
        .field("queue_rejected", ps.queue_rejected)
        .field("results_evicted", ps.results_dropped)
        .field("results_stale", ps.results_stale)
        .field("queue_depth", ps.queue_depth)
        .field("queue_depth_hwm", ps.queue_depth_hwm)
        .field("admission_rejected", ps.admission_rejected)
        .field("deadline_shed", ps.deadline_shed)
        .field("non_finite_frames", ps.non_finite_frames)
        .field("non_finite_labels", ps.non_finite_labels)
        .field("migration_rejected", ps.migration_rejected)
        .field("quarantined", ps.quarantined)
        .field("adapt_state", adapt_state_name(ps.adapt_state))
        .field("adapt_rounds", ps.adapt_rounds)
        .field("adapt_buffered", ps.adapt_buffered)
        .field("last_adapt_loss", ps.last_adapt_loss).end_object();
  w.end_array().end_object();
  return w.str();
}

}  // namespace fuse::serve
