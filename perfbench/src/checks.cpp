#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

#include "util/thread_pool.h"

namespace perfbench {

Accounting account_frames(const std::vector<FrameRecord>& frames,
                          const ServerCounts& counts) {
  Accounting a;
  a.sent = frames.size();
  for (const auto& f : frames) {
    if (!f.accepted) ++a.refused;
    if (f.served) ++a.served;
  }
  a.dropped = counts.dropped;
  a.shed = counts.shed;
  a.unaccounted = static_cast<std::int64_t>(a.sent) -
                  static_cast<std::int64_t>(a.served + a.dropped + a.refused +
                                            a.shed);
  a.in_flight_after = counts.in_flight;
  return a;
}

bool poses_match(const fuse::human::Pose& a, const fuse::human::Pose& b,
                 double tol_m, double* max_err_m) {
  double worst = 0.0;
  const auto diff = [&worst](float x, float y) {
    // A NaN in either pose must fail the check, not compare false.
    const double d = std::fabs(static_cast<double>(x) - y);
    worst = std::max(worst, std::isnan(d) ? INFINITY : d);
  };
  for (std::size_t j = 0; j < a.joints.size(); ++j) {
    diff(a.joints[j].x, b.joints[j].x);
    diff(a.joints[j].y, b.joints[j].y);
    diff(a.joints[j].z, b.joints[j].z);
  }
  if (max_err_m) *max_err_m = std::max(*max_err_m, worst);
  return worst <= tol_m;
}

namespace {
bool pose_finite(const fuse::human::Pose& p) {
  for (const auto& j : p.joints)
    if (!std::isfinite(j.x) || !std::isfinite(j.y) || !std::isfinite(j.z))
      return false;
  return true;
}
}  // namespace

OutputCheck check_outputs(const std::vector<FrameRecord>& frames,
                          const std::vector<bool>& adapting,
                          std::size_t window_frames,
                          const ReferenceFn& reference) {
  OutputCheck out;
  // Served frames per session in server order (seq).
  std::map<std::uint32_t, std::vector<const FrameRecord*>> by_session;
  for (const auto& f : frames)
    if (f.served) by_session[f.session].push_back(&f);

  // Pass 1: flag checks, and the fused window of every shared-model pose.
  std::map<std::vector<std::uint32_t>, std::size_t> window_ids;
  std::vector<std::pair<const FrameRecord*, std::size_t>> to_compare;
  for (auto& [session, served] : by_session) {
    std::sort(served.begin(), served.end(),
              [](const FrameRecord* a, const FrameRecord* b) {
                return a->seq < b->seq;
              });
    const bool may_adapt = session < adapting.size() && adapting[session];
    bool seen_adapted = false;
    for (std::size_t i = 0; i < served.size(); ++i) {
      const FrameRecord& f = *served[i];
      if (f.adapted_model) {
        seen_adapted = true;
        ++out.adapted;
        if (!may_adapt) ++out.flag_errors;
        if (!pose_finite(f.raw)) ++out.non_finite;
        continue;
      }
      // A session once served by its clone never goes back to the shared
      // model (nothing is quarantined or evicted in these workloads).
      if (seen_adapted) {
        ++out.flag_errors;
        continue;
      }
      const std::size_t first =
          i + 1 >= window_frames ? i + 1 - window_frames : 0;
      std::vector<std::uint32_t> window;
      for (std::size_t k = first; k <= i; ++k)
        window.push_back(served[k]->input);
      const auto it = window_ids.emplace(std::move(window), window_ids.size());
      to_compare.emplace_back(&f, it.first->second);
    }
  }

  // Pass 2: one reference per distinct window, computed in parallel.
  std::vector<const std::vector<std::uint32_t>*> windows(window_ids.size());
  for (const auto& [window, id] : window_ids) windows[id] = &window;
  std::vector<fuse::human::Pose> refs(windows.size());
  fuse::util::parallel_for(0, windows.size(),
                           [&](std::size_t lo, std::size_t hi) {
                             for (std::size_t i = lo; i < hi; ++i)
                               refs[i] = reference(*windows[i]);
                           });
  for (const auto& [f, id] : to_compare) {
    ++out.compared;
    if (!poses_match(f->raw, refs[id], kPoseTolM, &out.max_err_m))
      ++out.mismatched;
  }
  return out;
}

bool generator_valid(double late_p99_ms) {
  return late_p99_ms <= kLateBoundMs;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<std::size_t> quiet_half(const std::vector<double>& steal) {
  std::vector<std::size_t> idx(steal.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  idx.resize((steal.size() + 1) / 2);
  std::sort(idx.begin(), idx.end());
  return idx;
}

}  // namespace perfbench
