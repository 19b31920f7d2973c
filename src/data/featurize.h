#pragma once
// MARS-style featurization: point cloud -> fixed 8 x 8 x 5 feature map.
//
// The MARS baseline (which FUSE adopts) arranges a frame's points into an
// 8x8 grid with 5 channels (x, y, z, doppler, intensity): points are ranked
// by intensity, the strongest 64 kept, re-sorted spatially (top-to-bottom,
// left-to-right) for spatial coherence, and zero-padded when fewer than 64
// points exist.
//
// Multi-frame fusion (Eq. 3) concatenates the 2M+1 constituent frames into
// ONE point set before this step; the input stays 8x8x5 and the CNN is
// bit-identical across fusion settings — the paper is explicit that the
// FUSE network "has the same dimensions and model size" as the baseline and
// that fusion is a pure pre-processing step.  Fusion therefore acts as
// point-pool enrichment: sparse/faded frames borrow the strongest points of
// their neighbours, while too wide a window (M=2) pollutes the pool with
// stale points from a body that has since moved.
//
// Feature and label normalisation statistics are estimated on the training
// split only and applied everywhere (fit/apply separation, as in any honest
// pipeline).

#include <array>
#include <cstddef>

#include "data/dataset.h"
#include "data/fusion.h"
#include "tensor/tensor.h"

namespace fuse::data {

inline constexpr std::size_t kGridH = 8;
inline constexpr std::size_t kGridW = 8;
inline constexpr std::size_t kPointsPerFrame = kGridH * kGridW;  // 64
inline constexpr std::size_t kChannelsPerFrame = 5;  // x, y, z, doppler, snr

/// Per-channel affine normalisation (x - mean) / std, shared by every
/// constituent frame block.
struct ChannelStats {
  std::array<float, kChannelsPerFrame> mean{};
  std::array<float, kChannelsPerFrame> stddev{};

  ChannelStats() {
    mean.fill(0.0f);
    stddev.fill(1.0f);
  }
};

/// Label (57-dim joint vector) normalisation.
struct LabelStats {
  std::array<float, 3> mean{};    ///< per axis (x, y, z)
  std::array<float, 3> stddev{};

  LabelStats() {
    mean.fill(0.0f);
    stddev.fill(1.0f);
  }
};

/// Reusable scratch for frame_block(): the point-selection buffer is
/// recycled across calls, so a steady-state featurize loop (the serving
/// scheduler, make_inputs) never allocates per frame.
struct FeaturizeScratch {
  std::vector<fuse::radar::RadarPoint> points;
};

class Featurizer {
 public:
  Featurizer() = default;

  /// Estimates channel and label statistics from the given training frames.
  void fit(const Dataset& dataset, const IndexSet& train_indices);

  const ChannelStats& channel_stats() const { return channel_stats_; }
  const LabelStats& label_stats() const { return label_stats_; }

  /// Featurizes one point cloud (a single frame or a fused pool) into a
  /// normalized [5, 8, 8] block written at `out`
  /// (kChannelsPerFrame * kGridH * kGridW floats).
  void frame_block(const fuse::radar::PointCloud& cloud, float* out) const;

  /// Allocation-free variant: the point-selection buffer comes from
  /// `scratch` (identical output).
  void frame_block(const fuse::radar::PointCloud& cloud, float* out,
                   FeaturizeScratch& scratch) const;

  /// Builds the input batch [N, 5, 8, 8]: each sample's constituent frames
  /// are pooled into one cloud and featurized (Eq. 3 fusion).
  fuse::tensor::Tensor
  make_inputs(const FusedDataset& fused, const IndexSet& sample_indices) const;

  /// Builds the normalized label batch [N, 57].
  fuse::tensor::Tensor
  make_labels(const FusedDataset& fused, const IndexSet& sample_indices) const;

  /// make_inputs() / make_labels() into a caller's tensor, resized and
  /// every element written: a training loop reuses one batch's storage.
  void make_inputs(const FusedDataset& fused, const IndexSet& sample_indices,
                   fuse::tensor::Tensor& x) const;
  void make_labels(const FusedDataset& fused, const IndexSet& sample_indices,
                   fuse::tensor::Tensor& y) const;

  /// Converts a normalized [N, 57] prediction back to metres.
  fuse::tensor::Tensor denormalize_labels(const fuse::tensor::Tensor& y) const;

  /// Normalizes a single pose into a 57-float vector (test helper).
  std::array<float, fuse::human::kNumCoords>
  normalize_pose(const fuse::human::Pose& pose) const;

 private:
  ChannelStats channel_stats_;
  LabelStats label_stats_;
};

/// Mean absolute error per axis between prediction and target label batches
/// (both normalized [N, 57]); returned in metres {x, y, z}.
std::array<double, 3> mae_per_axis_m(const fuse::tensor::Tensor& pred,
                                     const fuse::tensor::Tensor& target,
                                     const LabelStats& stats);

}  // namespace fuse::data
