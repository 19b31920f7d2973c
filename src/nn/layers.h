#pragma once
// Neural-network layers with explicit forward/backward passes.
//
// There is intentionally no autograd: each layer writes its own backward
// and exposes its parameters and gradients directly.  What a backward
// needs from its forward goes to the caller's nn::Tape (nn/tape.h), not
// into the layer.  This makes the MAML inner/outer-loop parameter
// bookkeeping (clone, adapt, evaluate at adapted parameters, apply outer
// gradient) completely explicit — the core subtlety of the paper's
// Algorithm 1.
//
// Every layer is a Module, so networks compose through nn::Sequential and
// the registry (nn/registry.h) without the rest of the codebase knowing
// concrete layer types.
//
// All layers operate on batches: Conv2d on [N, C, H, W], Linear on [N, F].
// Layers are value types; copying a layer deep-copies its parameters and
// gradients, all it holds (Tensor is value-semantic), which is exactly
// what model cloning for meta-learning needs.

#include <memory>
#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace fuse::nn {

using fuse::tensor::Tensor;

/// 2-D convolution, square kernel, stride 1, symmetric zero padding.
///
/// forward(), infer() and backward() run one path, like Linear: the
/// implicit-GEMM convolution of tensor::conv2d, whose GEMM gathers its
/// im2col panels from the (zero-padded) input as it packs them, so the
/// whole batch runs through the register-tiled microkernel without a
/// column matrix.  forward() keeps that zero-padded input in its tape
/// record; backward (tensor::conv2d_backward) gathers the columns
/// from it again for dW = dy·colᵀ and computes dx image by image (Wᵀ·dy_i
/// into a one-image scratch, then col2im's scatter-add into the zeroed
/// tape buffer).  conv2d_reference_forward/backward below are the
/// per-sample loops the tests hold this path to.
class Conv2d : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t pad, fuse::util::Rng& rng);

  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&gw_, &gb_}; }
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<Conv2d>(*this);
  }
  std::string arch_name() const override { return "conv2d"; }

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t kernel() const { return kernel_; }
  std::size_t pad() const { return pad_; }

  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }

 protected:
  const Tensor& do_forward(const Tensor& x, Tape& tape) override;
  /// dy: [N, out_channels, H, W]; accumulates weight/bias gradients.
  const Tensor& do_backward(const Tensor& dy, Tape& tape,
                            InputGrad input) override;
  Tensor do_infer(const Tensor& x) const override;

 private:
  std::size_t in_channels_, out_channels_, kernel_, pad_;
  Tensor w_;   ///< [out_channels, in_channels * k * k]
  Tensor b_;   ///< [out_channels]
  Tensor gw_, gb_;
};

/// Reference convolution: per-sample im2col and plain loops, each output
/// accumulated from the bias in sequential k — the order the GEMM keeps,
/// so Conv2d::forward and Conv2d::infer equal it bit for bit.  Serial and
/// slow; an oracle for the tests, never run by the library.
Tensor conv2d_reference_forward(const Conv2d& conv, const Tensor& x);

/// Gradients of the reference convolution for input x and upstream dy:
/// dx, and fresh (not accumulated) weight and bias gradients, summed per
/// sample in double.  Conv2d::backward agrees with it to float rounding.
struct Conv2dGrads {
  Tensor dx;  ///< [N, in_channels, H, W]
  Tensor dw;  ///< [out_channels, in_channels * k * k]
  Tensor db;  ///< [out_channels]
};
Conv2dGrads conv2d_reference_backward(const Conv2d& conv, const Tensor& x,
                                      const Tensor& dy);

/// Fully connected layer y = x W^T + b.  Its backward reads the forward's
/// input where it lies (the previous layer's tape record, or the caller's
/// batch); nothing is copied.
class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features,
         fuse::util::Rng& rng);

  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&gw_, &gb_}; }
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<Linear>(*this);
  }
  std::string arch_name() const override { return "linear"; }

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }

  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

 protected:
  const Tensor& do_forward(const Tensor& x, Tape& tape) override;
  const Tensor& do_backward(const Tensor& dy, Tape& tape,
                            InputGrad input) override;
  Tensor do_infer(const Tensor& x) const override;

 private:
  std::size_t in_features_, out_features_;
  Tensor w_;  ///< [out_features, in_features]
  Tensor b_;  ///< [out_features]
  Tensor gw_, gb_;
};

/// Elementwise rectifier.  In training it runs in place on tape storage
/// and masks its backward with its output (y > 0 exactly where x > 0).
class ReLU : public Module {
 public:

  std::vector<Tensor*> params() override { return {}; }
  std::vector<Tensor*> grads() override { return {}; }
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<ReLU>(*this);
  }
  std::string arch_name() const override { return "relu"; }

 protected:
  const Tensor& do_forward(const Tensor& x, Tape& tape) override;
  const Tensor& do_backward(const Tensor& dy, Tape& tape,
                            InputGrad input) override;
  Tensor do_infer(const Tensor& x) const override;
  bool do_infer_inplace(Tensor& x) const override;
};

/// [N, C, H, W] <-> [N, C*H*W].  In training it reshapes tape storage in
/// place.
class Flatten : public Module {
 public:

  std::vector<Tensor*> params() override { return {}; }
  std::vector<Tensor*> grads() override { return {}; }
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<Flatten>(*this);
  }
  std::string arch_name() const override { return "flatten"; }

 protected:
  const Tensor& do_forward(const Tensor& x, Tape& tape) override;
  const Tensor& do_backward(const Tensor& dy, Tape& tape,
                            InputGrad input) override;
  Tensor do_infer(const Tensor& x) const override;
  bool do_infer_inplace(Tensor& x) const override;
};

}  // namespace fuse::nn
