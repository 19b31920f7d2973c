#include "core/predictor.h"

#include <algorithm>
#include <stdexcept>

namespace fuse::core {

using fuse::data::kChannelsPerFrame;
using fuse::data::kGridH;
using fuse::data::kGridW;

fuse::tensor::Tensor Predictor::alloc_batch(std::size_t n) const {
  return fuse::tensor::Tensor({n, kChannelsPerFrame, kGridH, kGridW});
}

void Predictor::featurize_window(const fuse::radar::PointCloud* const* window,
                                 std::size_t n_frames, float* out) const {
  PredictScratch scratch;
  featurize_window(window, n_frames, out, scratch);
}

void Predictor::featurize_window(const fuse::radar::PointCloud* const* window,
                                 std::size_t n_frames, float* out,
                                 PredictScratch& scratch) const {
  if (!valid())
    throw std::logic_error("Predictor: no featurizer attached");
  if (n_frames == 0)
    throw std::invalid_argument("Predictor::featurize_window: empty window");
  // Pool up to 2M+1 frames into one cloud (Eq. 3), then featurize.
  scratch.pool.points.clear();
  const std::size_t take = std::min(window_frames(), n_frames);
  for (std::size_t b = 0; b < take; ++b) scratch.pool.append(*window[b]);
  featurizer_->frame_block(scratch.pool, out, scratch.feat);
}

void Predictor::featurize_window(
    const std::vector<fuse::radar::PointCloud>& window, float* out) const {
  std::vector<const fuse::radar::PointCloud*> ptrs;
  ptrs.reserve(window.size());
  for (const auto& c : window) ptrs.push_back(&c);
  featurize_window(ptrs.data(), ptrs.size(), out);
}

std::vector<fuse::human::Pose>
Predictor::predict(const fuse::nn::Module& model,
                   const fuse::tensor::Tensor& x,
                   fuse::nn::Backend) const {
  if (!valid())
    throw std::logic_error("Predictor: no featurizer attached");
  const auto pred = model.infer(x);
  const auto denorm = featurizer_->denormalize_labels(pred);
  std::vector<fuse::human::Pose> poses(denorm.dim(0));
  for (std::size_t n = 0; n < poses.size(); ++n) {
    const float* row = denorm.data() + n * fuse::human::kNumCoords;
    for (std::size_t j = 0; j < fuse::human::kNumJoints; ++j) {
      poses[n].joints[j] = {row[j * 3 + 0], row[j * 3 + 1], row[j * 3 + 2]};
    }
  }
  return poses;
}

fuse::human::Pose Predictor::predict_window(
    const fuse::nn::Module& model,
    const std::vector<fuse::radar::PointCloud>& window) const {
  fuse::tensor::Tensor x = alloc_batch(1);
  featurize_window(window, x.data());
  return predict(model, x).front();
}

}  // namespace fuse::core
