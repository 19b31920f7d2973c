#pragma once
// Neural-network layers with explicit forward/backward passes.
//
// There is intentionally no tape-based autograd: each layer caches what its
// backward pass needs and exposes its parameters and gradients directly.
// This makes the MAML inner/outer-loop parameter bookkeeping (clone, adapt,
// evaluate at adapted parameters, apply outer gradient) completely explicit
// — the core subtlety of the paper's Algorithm 1.
//
// Every layer is a Module, so networks compose through nn::Sequential and
// the registry (nn/registry.h) without the rest of the codebase knowing
// concrete layer types.
//
// All layers operate on batches: Conv2d on [N, C, H, W], Linear on [N, F].
// Layers are value types; copying a layer deep-copies parameters, gradients
// and caches (Tensor is value-semantic), which is exactly what model
// cloning for meta-learning needs.

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
/// Both the training pass and the inference hot path dispatch on Backend:
/// kNaive runs the reference per-sample loops, kGemm lowers the whole
/// batch to one im2col column matrix and the register-tiled GEMM — the
/// weight panel is then read once per batch instead of once per sample,
/// which is where the batched speedup comes from.  forward() uses
/// train_backend() (default kGemm) and caches exactly ONE column
/// representation for backward(): the per-sample col_ under kNaive, the
/// batched workspace matrix under kGemm.  The GEMM backward is three
/// matrix products on that cache (dW = dy2·colᵀ, dcol = Wᵀ·dy2,
/// dx = col2im(dcol)); its scratch lives in a Workspace, so steady-shape
/// training loops stop allocating after the first step.
class Conv2d : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t pad, fuse::util::Rng& rng);

  // Copies carry parameters, gradients and shape bookkeeping but drop the
  // forward caches of BOTH backends (col_ like the workspace) — a batch-64
  // column matrix is megabytes, and per-task MAML clones never reuse the
  // parent's forward.
  Conv2d(const Conv2d& other);
  Conv2d& operator=(const Conv2d& other);
  Conv2d(Conv2d&&) = default;
  Conv2d& operator=(Conv2d&&) = default;

  Tensor forward(const Tensor& x) override;
  /// dy: [N, out_channels, H, W]; accumulates weight/bias gradients and
  /// returns dx.  Dispatches on the backend captured by the last forward();
  /// a cloned layer must run forward() before backward() (clones drop the
  /// scratch workspace so per-task MAML clones copy parameters and
  /// gradients only).
  Tensor backward(const Tensor& dy) override;

  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&gw_, &gb_}; }
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<Conv2d>(*this);
  }
  std::string arch_name() const override { return "conv2d"; }

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t kernel() const { return kernel_; }

  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

 protected:
  Tensor do_infer(const Tensor& x, Backend backend) const override;

 private:
  /// The GEMM backward: dW = dy2 · colbᵀ, dcol = Wᵀ · dy2, dx = col2im.
  Tensor backward_gemm(const Tensor& dy, std::size_t oh, std::size_t ow);

  // Workspace slots for the GEMM training path (scratch + column cache;
  // a Workspace copy is empty, so clones never alias these buffers).
  static constexpr std::size_t kWsColb = 0;  ///< [K, N*hw] batched columns
  static constexpr std::size_t kWsY2 = 1;    ///< [OC, N*hw] forward product
  static constexpr std::size_t kWsDy2 = 2;   ///< [OC, N*hw] packed dy
  static constexpr std::size_t kWsDcol = 3;  ///< [K, N*hw] column gradients

  std::size_t in_channels_, out_channels_, kernel_, pad_;
  Tensor w_;   ///< [out_channels, in_channels * k * k]
  Tensor b_;   ///< [out_channels]
  Tensor gw_, gb_;
  // forward cache: exactly one representation, keyed by fwd_backend_ —
  // col_ (per-sample) under kNaive, the kWsColb workspace slot under kGemm.
  Backend fwd_backend_ = Backend::kGemm;
  Tensor col_;  ///< im2col of the last input (naive path only)
  fuse::tensor::Workspace ws_;
  std::size_t n_ = 0, h_ = 0, w_in_ = 0;
};

/// Fully connected layer y = x W^T + b.
class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features,
         fuse::util::Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;

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
  Tensor do_infer(const Tensor& x, Backend backend) const override;

 private:
  std::size_t in_features_, out_features_;
  Tensor w_;  ///< [out_features, in_features]
  Tensor b_;  ///< [out_features]
  Tensor gw_, gb_;
  Tensor x_;  ///< forward cache
};

/// Elementwise rectifier.
class ReLU : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;

  std::vector<Tensor*> params() override { return {}; }
  std::vector<Tensor*> grads() override { return {}; }
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<ReLU>(*this);
  }
  std::string arch_name() const override { return "relu"; }

 protected:
  Tensor do_infer(const Tensor& x, Backend backend) const override;
  bool do_infer_inplace(Tensor& x, Backend backend) const override;

 private:
  Tensor x_;
};

/// [N, C, H, W] <-> [N, C*H*W].
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;

  std::vector<Tensor*> params() override { return {}; }
  std::vector<Tensor*> grads() override { return {}; }
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<Flatten>(*this);
  }
  std::string arch_name() const override { return "flatten"; }

 protected:
  Tensor do_infer(const Tensor& x, Backend backend) const override;
  bool do_infer_inplace(Tensor& x, Backend backend) const override;

 private:
  fuse::tensor::Shape in_shape_;
};

}  // namespace fuse::nn
