#pragma once
// Regression losses.  The paper trains and evaluates with the mean absolute
// error (L1) between predicted and ground-truth joint coordinates; L2 and
// Huber are provided as drop-in alternatives (Section 3.3.2 notes L2 "can
// also be used").

#include "tensor/tensor.h"

namespace fuse::nn {

using fuse::tensor::Tensor;

/// Mean absolute error over all elements; writes dL/dpred into grad
/// (resized to pred's shape, so a training loop reuses its storage).
float l1_loss(const Tensor& pred, const Tensor& target, Tensor* grad);

/// Mean squared error over all elements; writes dL/dpred into grad.
float l2_loss(const Tensor& pred, const Tensor& target, Tensor* grad);

/// Huber (smooth-L1) loss with threshold delta.
float huber_loss(const Tensor& pred, const Tensor& target, float delta,
                 Tensor* grad);

}  // namespace fuse::nn
