#include "core/metrics.h"

#include <algorithm>
#include <cmath>

namespace fuse::core {

using fuse::data::IndexSet;

MaeCm evaluate(const fuse::nn::Module& model,
               const fuse::data::FusedDataset& fused,
               const fuse::data::Featurizer& feat, const IndexSet& indices,
               std::size_t batch_size) {
  MaeCm out;
  if (indices.empty()) return out;
  std::array<double, 3> acc{};
  std::size_t n_done = 0;
  for (std::size_t pos = 0; pos < indices.size(); pos += batch_size) {
    const std::size_t hi = std::min(indices.size(), pos + batch_size);
    const IndexSet chunk(indices.begin() + static_cast<std::ptrdiff_t>(pos),
                         indices.begin() + static_cast<std::ptrdiff_t>(hi));
    const auto x = feat.make_inputs(fused, chunk);
    const auto y = feat.make_labels(fused, chunk);
    const auto pred = model.infer(x);
    const auto mae = fuse::data::mae_per_axis_m(pred, y, feat.label_stats());
    const auto w = static_cast<double>(chunk.size());
    for (std::size_t a = 0; a < 3; ++a) acc[a] += mae[a] * w;
    n_done += chunk.size();
  }
  const double inv = 100.0 / static_cast<double>(n_done);  // m -> cm
  out.x = acc[0] * inv;
  out.y = acc[1] * inv;
  out.z = acc[2] * inv;
  return out;
}

std::vector<double> per_joint_mae_cm(const fuse::nn::Module& model,
                                     const fuse::data::FusedDataset& fused,
                                     const fuse::data::Featurizer& feat,
                                     const IndexSet& indices,
                                     std::size_t batch_size) {
  std::vector<double> acc(fuse::human::kNumJoints, 0.0);
  if (indices.empty()) return acc;
  const auto& stats = feat.label_stats();
  std::size_t n_done = 0;
  for (std::size_t pos = 0; pos < indices.size(); pos += batch_size) {
    const std::size_t hi = std::min(indices.size(), pos + batch_size);
    const IndexSet chunk(indices.begin() + static_cast<std::ptrdiff_t>(pos),
                         indices.begin() + static_cast<std::ptrdiff_t>(hi));
    const auto x = feat.make_inputs(fused, chunk);
    const auto y = feat.make_labels(fused, chunk);
    const auto pred = model.infer(x);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const float* p = pred.data() + i * fuse::human::kNumCoords;
      const float* t = y.data() + i * fuse::human::kNumCoords;
      for (std::size_t j = 0; j < fuse::human::kNumJoints; ++j) {
        double e = 0.0;
        for (std::size_t a = 0; a < 3; ++a)
          e += std::fabs(static_cast<double>(p[j * 3 + a]) - t[j * 3 + a]) *
               stats.stddev[a];
        acc[j] += e / 3.0;
      }
    }
    n_done += chunk.size();
  }
  for (auto& v : acc) v *= 100.0 / static_cast<double>(n_done);
  return acc;
}

Intersection intersection_epoch(const std::vector<double>& a,
                                const std::vector<double>& b) {
  using Outcome = Intersection::Outcome;
  const std::size_t n = std::min(a.size(), b.size());
  // Find where b (FUSE) first drops below a (baseline) — in the paper FUSE
  // starts above the baseline and crosses early — then report the first
  // epoch at which the baseline catches back up.
  std::size_t start = 0;
  while (start < n && b[start] >= a[start]) ++start;
  if (start == n) return {Outcome::kFuseNeverAhead, n};
  for (std::size_t e = start; e < n; ++e)
    if (a[e] <= b[e]) return {Outcome::kCrossed, e};
  return {Outcome::kBaselineNeverCaughtUp, n};
}

}  // namespace fuse::core
