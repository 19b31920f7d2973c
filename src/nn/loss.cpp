#include "nn/loss.h"

#include <cmath>

namespace fuse::nn {

float l1_loss(const Tensor& pred, const Tensor& target, Tensor* grad) {
  fuse::tensor::check_same_shape(pred, target, "l1_loss");
  const std::size_t n = pred.numel();
  if (grad != nullptr) grad->resize(pred.shape());
  double acc = 0.0;
  const float inv = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float d = pred[i] - target[i];
    acc += std::fabs(d);
    if (grad != nullptr)
      (*grad)[i] = d > 0.0f ? inv : (d < 0.0f ? -inv : 0.0f);
  }
  return static_cast<float>(acc / static_cast<double>(n));
}

float l2_loss(const Tensor& pred, const Tensor& target, Tensor* grad) {
  fuse::tensor::check_same_shape(pred, target, "l2_loss");
  const std::size_t n = pred.numel();
  if (grad != nullptr) grad->resize(pred.shape());
  double acc = 0.0;
  const float inv = 2.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float d = pred[i] - target[i];
    acc += static_cast<double>(d) * d;
    if (grad != nullptr) (*grad)[i] = inv * d;
  }
  return static_cast<float>(acc / static_cast<double>(n));
}

float huber_loss(const Tensor& pred, const Tensor& target, float delta,
                 Tensor* grad) {
  fuse::tensor::check_same_shape(pred, target, "huber_loss");
  const std::size_t n = pred.numel();
  if (grad != nullptr) grad->resize(pred.shape());
  double acc = 0.0;
  const float inv = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float d = pred[i] - target[i];
    const float ad = std::fabs(d);
    if (ad <= delta) {
      acc += 0.5 * static_cast<double>(d) * d;
      if (grad != nullptr) (*grad)[i] = inv * d;
    } else {
      acc += static_cast<double>(delta) * (ad - 0.5f * delta);
      if (grad != nullptr) (*grad)[i] = inv * (d > 0.0f ? delta : -delta);
    }
  }
  return static_cast<float>(acc / static_cast<double>(n));
}

}  // namespace fuse::nn
