#include "serve/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

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

namespace {

// Minimal JSON emission: every key and value is generated internally
// (stage/adapt-state names, numbers), so no escaping is needed.
// Formats directly into the output string at whatever length the line
// needs — a fixed stack buffer here once silently truncated the
// clone_store line past 256 chars and emitted unparseable JSON.
void append(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  if (n > 0) {
    const std::size_t old = out.size();
    out.resize(old + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + old, static_cast<std::size_t>(n) + 1, fmt,
                   args);
    out.resize(old + static_cast<std::size_t>(n));
  }
  va_end(args);
}

}  // namespace

std::string stats_to_json(const ServeStats& s) {
  std::string out;
  out.reserve(2048 + 256 * s.per_session.size());
  out += "{\n";
  append(out, "  \"sessions\": %zu,\n", s.sessions);
  append(out, "  \"frames_in\": %llu,\n",
         static_cast<unsigned long long>(s.frames_in));
  append(out, "  \"frames_out\": %llu,\n",
         static_cast<unsigned long long>(s.frames_out));
  append(out, "  \"frames_dropped\": %llu,\n",
         static_cast<unsigned long long>(s.frames_dropped));
  append(out,
         "  \"drops\": {\"queue_evicted\": %llu, \"queue_rejected\": %llu, "
         "\"results_evicted\": %llu, \"results_stale\": %llu},\n",
         static_cast<unsigned long long>(s.queue_evicted),
         static_cast<unsigned long long>(s.queue_rejected),
         static_cast<unsigned long long>(s.results_evicted),
         static_cast<unsigned long long>(s.results_stale));
  append(out, "  \"drop_rate\": %.6f,\n", s.drop_rate);
  append(out, "  \"queue_depth_hwm\": %zu,\n", s.queue_depth_hwm);
  append(out,
         "  \"robustness\": {\"admission_rejected\": %llu, "
         "\"deadline_shed\": %llu, \"non_finite_frames\": %llu, "
         "\"non_finite_labels\": %llu, \"quarantined_sessions\": %zu, "
         "\"migrations\": %llu, \"migration_failures\": %llu, "
         "\"migration_rejected\": %llu},\n",
         static_cast<unsigned long long>(s.admission_rejected),
         static_cast<unsigned long long>(s.deadline_shed),
         static_cast<unsigned long long>(s.non_finite_frames),
         static_cast<unsigned long long>(s.non_finite_labels),
         s.quarantined_sessions,
         static_cast<unsigned long long>(s.migrations),
         static_cast<unsigned long long>(s.migration_failures),
         static_cast<unsigned long long>(s.migration_rejected));
  append(out, "  \"shed_rate\": %.6f,\n", s.shed_rate);
  append(out, "  \"in_flight\": %zu,\n", s.in_flight);
  append(out,
         "  \"overload\": {\"level\": %d, \"level_name\": \"%s\", "
         "\"transitions\": %llu},\n",
         s.overload_level, s.overload_level_name.c_str(),
         static_cast<unsigned long long>(s.overload_transitions));
  append(out, "  \"shards\": %zu,\n", s.shards);
  out += "  \"per_shard\": [\n";
  for (std::size_t i = 0; i < s.per_shard.size(); ++i) {
    const auto& sh = s.per_shard[i];
    append(out,
           "    {\"shard\": %zu, \"sessions\": %zu, \"frames_in\": %llu, "
           "\"frames_out\": %llu, \"in_flight\": %zu, \"batches\": %llu, "
           "\"overload_level\": %d, \"overload_transitions\": %llu, "
           "\"latency_p99_ms\": %.4f, \"migrations_in\": %llu, "
           "\"migrations_out\": %llu, \"migration_failures\": %llu, "
           "\"queue_depth_series\": [",
           sh.shard, sh.sessions,
           static_cast<unsigned long long>(sh.frames_in),
           static_cast<unsigned long long>(sh.frames_out), sh.in_flight,
           static_cast<unsigned long long>(sh.batches), sh.overload_level,
           static_cast<unsigned long long>(sh.overload_transitions),
           sh.latency_p99_ms,
           static_cast<unsigned long long>(sh.migrations_in),
           static_cast<unsigned long long>(sh.migrations_out),
           static_cast<unsigned long long>(sh.migration_failures));
    for (std::size_t k = 0; k < sh.queue_depth_series.size(); ++k)
      append(out, "%s%zu", k ? ", " : "", sh.queue_depth_series[k]);
    append(out, "]}%s\n", i + 1 < s.per_shard.size() ? "," : "");
  }
  out += "  ],\n";
  append(out, "  \"batches\": %llu,\n",
         static_cast<unsigned long long>(s.batches));
  append(out, "  \"mean_batch\": %.3f,\n", s.mean_batch);
  append(out,
         "  \"latency_ms\": {\"p50\": %.4f, \"p95\": %.4f, \"p99\": %.4f, "
         "\"mean\": %.4f, \"max\": %.4f},\n",
         s.latency_p50_ms, s.latency_p95_ms, s.latency_p99_ms,
         s.latency_mean_ms, s.latency_max_ms);
  append(out, "  \"detailed\": %s,\n", s.detailed ? "true" : "false");
  out += "  \"stages\": [\n";
  for (std::size_t i = 0; i < s.stages.size(); ++i) {
    const auto& st = s.stages[i];
    append(out,
           "    {\"stage\": \"%s\", \"count\": %llu, \"total_ms\": %.3f, "
           "\"mean_ms\": %.4f, \"p50_ms\": %.4f, \"p95_ms\": %.4f, "
           "\"p99_ms\": %.4f, \"max_ms\": %.4f}%s\n",
           st.stage.c_str(), static_cast<unsigned long long>(st.count),
           st.total_ms, st.mean_ms, st.p50_ms, st.p95_ms, st.p99_ms,
           st.max_ms, i + 1 < s.stages.size() ? "," : "");
  }
  out += "  ],\n";
  const auto& cs = s.clone_store;
  append(out,
         "  \"clone_store\": {\"enabled\": %s, \"hits\": %llu, "
         "\"misses\": %llu, \"evictions\": %llu, \"rehydrations\": %llu, "
         "\"checkpoint_writes\": %llu, \"tracked\": %zu, \"resident\": %zu, "
         "\"resident_bytes\": %zu, \"disk_bytes\": %zu, "
         "\"restore_skipped\": %llu, \"rehydrate_failures\": %llu, "
         "\"checkpoint_failures\": %llu},\n",
         cs.enabled ? "true" : "false",
         static_cast<unsigned long long>(cs.hits),
         static_cast<unsigned long long>(cs.misses),
         static_cast<unsigned long long>(cs.evictions),
         static_cast<unsigned long long>(cs.rehydrations),
         static_cast<unsigned long long>(cs.checkpoint_writes), cs.tracked,
         cs.resident, cs.resident_bytes, cs.disk_bytes,
         static_cast<unsigned long long>(cs.restore_skipped),
         static_cast<unsigned long long>(cs.rehydrate_failures),
         static_cast<unsigned long long>(cs.checkpoint_failures));
  out += "  \"per_session\": [\n";
  for (std::size_t i = 0; i < s.per_session.size(); ++i) {
    const auto& ps = s.per_session[i];
    append(out,
           "    {\"id\": %zu, \"frames_in\": %llu, \"frames_out\": %llu, "
           "\"frames_dropped\": %llu, \"queue_evicted\": %llu, "
           "\"queue_rejected\": %llu, \"results_evicted\": %llu, "
           "\"results_stale\": %llu, \"queue_depth\": %zu, "
           "\"queue_depth_hwm\": %zu,",
           ps.id, static_cast<unsigned long long>(ps.frames_in),
           static_cast<unsigned long long>(ps.frames_out),
           static_cast<unsigned long long>(ps.frames_dropped),
           static_cast<unsigned long long>(ps.queue_evicted),
           static_cast<unsigned long long>(ps.queue_rejected),
           static_cast<unsigned long long>(ps.results_dropped),
           static_cast<unsigned long long>(ps.results_stale),
           ps.queue_depth, ps.queue_depth_hwm);
    append(out,
           " \"admission_rejected\": %llu, \"deadline_shed\": %llu, "
           "\"non_finite_frames\": %llu, \"non_finite_labels\": %llu, "
           "\"migration_rejected\": %llu, \"quarantined\": %s,",
           static_cast<unsigned long long>(ps.admission_rejected),
           static_cast<unsigned long long>(ps.deadline_shed),
           static_cast<unsigned long long>(ps.non_finite_frames),
           static_cast<unsigned long long>(ps.non_finite_labels),
           static_cast<unsigned long long>(ps.migration_rejected),
           ps.quarantined ? "true" : "false");
    append(out,
           " \"adapt_state\": \"%s\", \"adapt_rounds\": %llu, "
           "\"adapt_buffered\": %zu, \"last_adapt_loss\": %.6f}%s\n",
           adapt_state_name(ps.adapt_state),
           static_cast<unsigned long long>(ps.adapt_rounds),
           ps.adapt_buffered, static_cast<double>(ps.last_adapt_loss),
           i + 1 < s.per_session.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace fuse::serve
