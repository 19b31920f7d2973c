#pragma once
// Stateless featurize -> predict path, factored out of FusePipeline so the
// streaming serving runtime (src/serve) can share it.
//
// A Predictor borrows a fitted Featurizer and the fusion window size and
// turns raw point-cloud windows into poses:
//
//   window of <= 2M+1 frames --pool (Eq. 3)--> one cloud
//     --featurize--> [5, 8, 8] block
//     --Module::infer (batched)--> normalized [N, 57]
//     --denormalize--> N poses
//
// It holds no mutable state, so one Predictor serves any number of
// concurrent sessions; the model is passed per call (sessions may run the
// shared meta-model or their own fine-tuned clone).

#include <cstddef>
#include <vector>

#include "data/featurize.h"
#include "human/skeleton.h"
#include "nn/module.h"
#include "radar/point_cloud.h"
#include "tensor/tensor.h"

namespace fuse::core {

/// Reusable scratch for the streaming featurize path: the fusion pool and
/// the point-selection buffer are recycled across frames, so a per-session
/// (or per-scheduler) owner pays zero steady-state allocations for
/// featurization.
struct PredictScratch {
  fuse::radar::PointCloud pool;
  fuse::data::FeaturizeScratch feat;
};

class Predictor {
 public:
  Predictor() = default;
  /// `featurizer` must outlive the Predictor and already be fitted.
  Predictor(const fuse::data::Featurizer* featurizer, std::size_t fusion_m)
      : featurizer_(featurizer), fusion_m_(fusion_m) {}

  bool valid() const { return featurizer_ != nullptr; }
  std::size_t fusion_m() const { return fusion_m_; }
  /// Frames per fusion window (2M+1).
  std::size_t window_frames() const { return 2 * fusion_m_ + 1; }

  /// Allocates an input batch [n, 5, 8, 8].
  fuse::tensor::Tensor alloc_batch(std::size_t n) const;

  /// Pools the first <= window_frames() clouds of `window` (oldest first,
  /// clamped like the dataset pipeline) and writes one normalized
  /// [5, 8, 8] block at `out`.  Throws on an empty window.
  void featurize_window(const fuse::radar::PointCloud* const* window,
                        std::size_t n_frames, float* out) const;
  void featurize_window(const std::vector<fuse::radar::PointCloud>& window,
                        float* out) const;

  /// Allocation-free variant: pooling and point selection reuse `scratch`.
  void featurize_window(const fuse::radar::PointCloud* const* window,
                        std::size_t n_frames, float* out,
                        PredictScratch& scratch) const;

  /// Batched inference: x [N, 5, 8, 8] -> N denormalized poses.  The
  /// Backend parameter is a single-value tag that selects nothing.
  std::vector<fuse::human::Pose> predict(
      const fuse::nn::Module& model, const fuse::tensor::Tensor& x,
      fuse::nn::Backend = fuse::nn::Backend::kGemm) const;

  /// Single-window convenience (the original FusePipeline::predict_window
  /// path, batch size 1).
  fuse::human::Pose predict_window(
      const fuse::nn::Module& model,
      const std::vector<fuse::radar::PointCloud>& window) const;

  const fuse::data::Featurizer& featurizer() const { return *featurizer_; }

 private:
  const fuse::data::Featurizer* featurizer_ = nullptr;
  std::size_t fusion_m_ = 0;
};

}  // namespace fuse::core
