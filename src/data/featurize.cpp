#include "data/featurize.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace fuse::data {

using fuse::radar::RadarPoint;
using fuse::tensor::Tensor;

namespace {

/// Selects the <= 64 strongest points and orders them spatially
/// (descending z, then ascending x, then ascending y) — the deterministic
/// MARS-style arrangement.  The selection happens in `pts`, which keeps
/// its capacity across calls when owned by a FeaturizeScratch.
void select_points(const fuse::radar::PointCloud& cloud,
                   std::vector<RadarPoint>& pts) {
  pts.assign(cloud.points.begin(), cloud.points.end());
  if (pts.size() > kPointsPerFrame) {
    std::partial_sort(pts.begin(), pts.begin() + kPointsPerFrame, pts.end(),
                      [](const RadarPoint& a, const RadarPoint& b) {
                        return a.intensity > b.intensity;
                      });
    pts.resize(kPointsPerFrame);
  }
  std::sort(pts.begin(), pts.end(),
            [](const RadarPoint& a, const RadarPoint& b) {
              if (a.z != b.z) return a.z > b.z;
              if (a.x != b.x) return a.x < b.x;
              return a.y < b.y;
            });
}

}  // namespace

void Featurizer::fit(const Dataset& dataset, const IndexSet& train_indices) {
  // Channel statistics over all points in the training frames.
  std::array<double, kChannelsPerFrame> sum{}, sum_sq{};
  std::size_t n_points = 0;
  // Label statistics per axis over all joints.
  std::array<double, 3> lsum{}, lsum_sq{};
  std::size_t n_coords = 0;

  for (const std::size_t idx : train_indices) {
    const LabeledFrame& f = dataset.frames.at(idx);
    for (const RadarPoint& p : f.cloud.points) {
      const std::array<float, kChannelsPerFrame> v = {p.x, p.y, p.z,
                                                      p.doppler, p.intensity};
      for (std::size_t c = 0; c < kChannelsPerFrame; ++c) {
        sum[c] += v[c];
        sum_sq[c] += static_cast<double>(v[c]) * v[c];
      }
      ++n_points;
    }
    for (const auto& j : f.label.joints) {
      const std::array<float, 3> v = {j.x, j.y, j.z};
      for (std::size_t a = 0; a < 3; ++a) {
        lsum[a] += v[a];
        lsum_sq[a] += static_cast<double>(v[a]) * v[a];
      }
      ++n_coords;
    }
  }
  if (n_points == 0 || n_coords == 0)
    throw std::invalid_argument("Featurizer::fit: empty training set");

  for (std::size_t c = 0; c < kChannelsPerFrame; ++c) {
    const double mean = sum[c] / static_cast<double>(n_points);
    const double var =
        std::max(1e-8, sum_sq[c] / static_cast<double>(n_points) -
                           mean * mean);
    channel_stats_.mean[c] = static_cast<float>(mean);
    channel_stats_.stddev[c] = static_cast<float>(std::sqrt(var));
  }
  for (std::size_t a = 0; a < 3; ++a) {
    const double mean = lsum[a] / static_cast<double>(n_coords);
    const double var =
        std::max(1e-8, lsum_sq[a] / static_cast<double>(n_coords) -
                           mean * mean);
    label_stats_.mean[a] = static_cast<float>(mean);
    label_stats_.stddev[a] = static_cast<float>(std::sqrt(var));
  }
}

void Featurizer::frame_block(const fuse::radar::PointCloud& cloud,
                             float* out) const {
  FeaturizeScratch scratch;
  frame_block(cloud, out, scratch);
}

void Featurizer::frame_block(const fuse::radar::PointCloud& cloud, float* out,
                             FeaturizeScratch& scratch) const {
  select_points(cloud, scratch.points);
  const auto& pts = scratch.points;
  // Channel-major layout: out[c][h][w]; padded slots stay zero (zero is the
  // normalized mean, i.e. "no information").
  std::fill(out, out + kChannelsPerFrame * kPointsPerFrame, 0.0f);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const RadarPoint& p = pts[i];
    const std::array<float, kChannelsPerFrame> v = {p.x, p.y, p.z, p.doppler,
                                                    p.intensity};
    for (std::size_t c = 0; c < kChannelsPerFrame; ++c) {
      out[c * kPointsPerFrame + i] =
          (v[c] - channel_stats_.mean[c]) / channel_stats_.stddev[c];
    }
  }
}

Tensor Featurizer::make_inputs(const FusedDataset& fused,
                               const IndexSet& sample_indices) const {
  Tensor x;
  make_inputs(fused, sample_indices, x);
  return x;
}

Tensor Featurizer::make_labels(const FusedDataset& fused,
                               const IndexSet& sample_indices) const {
  Tensor y;
  make_labels(fused, sample_indices, y);
  return y;
}

void Featurizer::make_inputs(const FusedDataset& fused,
                             const IndexSet& sample_indices, Tensor& x) const {
  const std::size_t n = sample_indices.size();
  x.resize({n, kChannelsPerFrame, kGridH, kGridW});
  const std::size_t block_size = kChannelsPerFrame * kPointsPerFrame;

  fuse::util::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    FeaturizeScratch scratch;  // per-chunk: recycled across the chunk's rows
    for (std::size_t i = lo; i < hi; ++i) {
      const auto pool = fused.fused_cloud(sample_indices[i]);
      frame_block(pool, x.data() + i * block_size, scratch);
    }
  }, 16);
}

void Featurizer::make_labels(const FusedDataset& fused,
                             const IndexSet& sample_indices, Tensor& y) const {
  const std::size_t n = sample_indices.size();
  y.resize({n, fuse::human::kNumCoords});
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = normalize_pose(fused.centre_frame(sample_indices[i]).label);
    std::copy(v.begin(), v.end(), y.data() + i * fuse::human::kNumCoords);
  }
}

std::array<float, fuse::human::kNumCoords>
Featurizer::normalize_pose(const fuse::human::Pose& pose) const {
  std::array<float, fuse::human::kNumCoords> out{};
  for (std::size_t j = 0; j < fuse::human::kNumJoints; ++j) {
    const auto& p = pose.joints[j];
    out[j * 3 + 0] = (p.x - label_stats_.mean[0]) / label_stats_.stddev[0];
    out[j * 3 + 1] = (p.y - label_stats_.mean[1]) / label_stats_.stddev[1];
    out[j * 3 + 2] = (p.z - label_stats_.mean[2]) / label_stats_.stddev[2];
  }
  return out;
}

Tensor Featurizer::denormalize_labels(const Tensor& y) const {
  Tensor out = y;
  const std::size_t n = y.dim(0);
  for (std::size_t i = 0; i < n; ++i) {
    float* row = out.data() + i * fuse::human::kNumCoords;
    for (std::size_t j = 0; j < fuse::human::kNumJoints; ++j) {
      for (std::size_t a = 0; a < 3; ++a) {
        row[j * 3 + a] =
            row[j * 3 + a] * label_stats_.stddev[a] + label_stats_.mean[a];
      }
    }
  }
  return out;
}

std::array<double, 3> mae_per_axis_m(const Tensor& pred, const Tensor& target,
                                     const LabelStats& stats) {
  fuse::tensor::check_same_shape(pred, target, "mae_per_axis_m");
  const std::size_t n = pred.dim(0);
  std::array<double, 3> acc{};
  for (std::size_t i = 0; i < n; ++i) {
    const float* p = pred.data() + i * fuse::human::kNumCoords;
    const float* t = target.data() + i * fuse::human::kNumCoords;
    for (std::size_t j = 0; j < fuse::human::kNumJoints; ++j)
      for (std::size_t a = 0; a < 3; ++a)
        acc[a] += std::fabs(static_cast<double>(p[j * 3 + a]) -
                            t[j * 3 + a]) *
                  stats.stddev[a];
  }
  const double denom =
      static_cast<double>(n) * static_cast<double>(fuse::human::kNumJoints);
  for (auto& v : acc) v /= std::max(1.0, denom);
  return acc;
}

}  // namespace fuse::data
