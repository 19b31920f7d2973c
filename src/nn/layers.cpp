#include "nn/layers.h"

#include <stdexcept>
#include <string>

#include "tensor/init.h"

namespace fuse::nn {

using fuse::tensor::Trans;

namespace {

void check_conv_input(const Tensor& x, std::size_t in_channels,
                      const char* where) {
  if (x.ndim() != 4 || x.dim(1) != in_channels)
    throw std::invalid_argument(std::string(where) + ": bad input shape");
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t pad, fuse::util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      pad_(pad),
      w_({out_channels, in_channels * kernel * kernel}),
      b_({out_channels}),
      gw_({out_channels, in_channels * kernel * kernel}),
      gb_({out_channels}) {
  fuse::tensor::init_he_normal(w_, in_channels * kernel * kernel, rng);
}

Conv2d::Conv2d(const Conv2d& other)
    : Module(other),
      in_channels_(other.in_channels_),
      out_channels_(other.out_channels_),
      kernel_(other.kernel_),
      pad_(other.pad_),
      w_(other.w_),
      b_(other.b_),
      gw_(other.gw_),
      gb_(other.gb_) {}  // x_ starts empty: the cache is not copied

Conv2d& Conv2d::operator=(const Conv2d& other) {
  if (this == &other) return *this;
  Module::operator=(other);
  in_channels_ = other.in_channels_;
  out_channels_ = other.out_channels_;
  kernel_ = other.kernel_;
  pad_ = other.pad_;
  w_ = other.w_;
  b_ = other.b_;
  gw_ = other.gw_;
  gb_ = other.gb_;
  x_ = Tensor();
  return *this;
}

Tensor Conv2d::forward(const Tensor& x) {
  check_conv_input(x, in_channels_, "Conv2d::forward");
  x_ = x;  // backward() gathers its columns from the input again
  return fuse::tensor::conv2d(x, w_, b_, kernel_, pad_);
}

Tensor Conv2d::do_infer(const Tensor& x) const {
  check_conv_input(x, in_channels_, "Conv2d::infer");
  return fuse::tensor::conv2d(x, w_, b_, kernel_, pad_);
}

Tensor Conv2d::backward(const Tensor& dy) {
  if (x_.ndim() != 4)
    throw std::logic_error(
        "Conv2d::backward: no cached forward (run forward() first — clones "
        "drop the input cache)");
  return fuse::tensor::conv2d_backward(x_, w_, dy, kernel_, pad_, gw_, gb_);
}

Tensor conv2d_reference_forward(const Conv2d& conv, const Tensor& x) {
  check_conv_input(x, conv.in_channels(), "conv2d_reference_forward");
  const std::size_t n = x.dim(0), oc_n = conv.out_channels();
  const std::size_t k = conv.weight().dim(1);
  const std::size_t oh = fuse::tensor::conv_out_size(
      x.dim(2), conv.kernel(), 1, conv.pad());
  const std::size_t ow = fuse::tensor::conv_out_size(
      x.dim(3), conv.kernel(), 1, conv.pad());
  const std::size_t hw = oh * ow;
  const Tensor col =
      fuse::tensor::im2col(x, conv.kernel(), conv.kernel(), 1, conv.pad());
  Tensor y({n, oc_n, oh, ow});
  for (std::size_t nidx = 0; nidx < n; ++nidx) {
    const float* colp = col.data() + nidx * k * hw;
    for (std::size_t oc = 0; oc < oc_n; ++oc) {
      const float* wrow = conv.weight().data() + oc * k;
      float* yrow = y.data() + (nidx * oc_n + oc) * hw;
      for (std::size_t p = 0; p < hw; ++p) yrow[p] = conv.bias()[oc];
      for (std::size_t kk = 0; kk < k; ++kk)
        for (std::size_t p = 0; p < hw; ++p)
          yrow[p] += wrow[kk] * colp[kk * hw + p];
    }
  }
  return y;
}

Conv2dGrads conv2d_reference_backward(const Conv2d& conv, const Tensor& x,
                                      const Tensor& dy) {
  check_conv_input(x, conv.in_channels(), "conv2d_reference_backward");
  const std::size_t n = x.dim(0), oc_n = conv.out_channels();
  const std::size_t k = conv.weight().dim(1);
  const std::size_t oh = fuse::tensor::conv_out_size(
      x.dim(2), conv.kernel(), 1, conv.pad());
  const std::size_t ow = fuse::tensor::conv_out_size(
      x.dim(3), conv.kernel(), 1, conv.pad());
  const std::size_t hw = oh * ow;
  if (dy.ndim() != 4 || dy.dim(0) != n || dy.dim(1) != oc_n ||
      dy.dim(2) != oh || dy.dim(3) != ow)
    throw std::invalid_argument(
        "conv2d_reference_backward: bad gradient shape");
  const Tensor col =
      fuse::tensor::im2col(x, conv.kernel(), conv.kernel(), 1, conv.pad());
  Conv2dGrads g{Tensor(), Tensor(conv.weight().shape()),
                Tensor(conv.bias().shape())};
  Tensor dcol({n, k, hw});
  for (std::size_t nidx = 0; nidx < n; ++nidx) {
    const float* colp = col.data() + nidx * k * hw;
    float* dcolp = dcol.data() + nidx * k * hw;
    // dW += dy_n · col_nᵀ ; db += row sums of dy_n ; dcol_n = Wᵀ · dy_n.
    for (std::size_t oc = 0; oc < oc_n; ++oc) {
      const float* dyrow = dy.data() + (nidx * oc_n + oc) * hw;
      const float* wrow = conv.weight().data() + oc * k;
      double brow = 0.0;
      for (std::size_t p = 0; p < hw; ++p) brow += dyrow[p];
      g.db[oc] += static_cast<float>(brow);
      for (std::size_t kk = 0; kk < k; ++kk) {
        double acc = 0.0;
        for (std::size_t p = 0; p < hw; ++p) {
          acc += static_cast<double>(dyrow[p]) * colp[kk * hw + p];
          dcolp[kk * hw + p] += wrow[kk] * dyrow[p];
        }
        g.dw[oc * k + kk] += static_cast<float>(acc);
      }
    }
  }
  g.dx = fuse::tensor::col2im(dcol, n, conv.in_channels(), x.dim(2),
                              x.dim(3), conv.kernel(), conv.kernel(), 1,
                              conv.pad());
  return g;
}

Linear::Linear(std::size_t in_features, std::size_t out_features,
               fuse::util::Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      w_({out_features, in_features}),
      b_({out_features}),
      gw_({out_features, in_features}),
      gb_({out_features}) {
  fuse::tensor::init_he_normal(w_, in_features, rng);
}

Tensor Linear::forward(const Tensor& x) {
  if (x.ndim() != 2 || x.dim(1) != in_features_)
    throw std::invalid_argument("Linear::forward: bad input shape");
  x_ = x;
  Tensor y = fuse::tensor::matmul(x, w_, Trans::kNo, Trans::kYes);
  fuse::tensor::add_row_bias(y, b_);
  return y;
}

Tensor Linear::do_infer(const Tensor& x) const {
  if (x.ndim() != 2 || x.dim(1) != in_features_)
    throw std::invalid_argument("Linear::infer: bad input shape");
  Tensor y = fuse::tensor::matmul(x, w_, Trans::kNo, Trans::kYes);
  fuse::tensor::add_row_bias(y, b_);
  return y;
}

Tensor Linear::backward(const Tensor& dy) {
  if (dy.ndim() != 2 || dy.dim(0) != x_.dim(0) || dy.dim(1) != out_features_)
    throw std::invalid_argument("Linear::backward: bad gradient shape");
  // gw += dy^T x ; gb += column sums of dy ; dx = dy W.
  fuse::tensor::gemm(Trans::kYes, Trans::kNo, 1.0f, dy, x_, 1.0f, gw_);
  gb_ += fuse::tensor::sum_rows(dy);
  return fuse::tensor::matmul(dy, w_, Trans::kNo, Trans::kNo);
}

Tensor ReLU::forward(const Tensor& x) {
  x_ = x;
  return fuse::tensor::relu(x);
}

Tensor ReLU::backward(const Tensor& dy) {
  return fuse::tensor::relu_backward(dy, x_);
}

Tensor ReLU::do_infer(const Tensor& x) const {
  return fuse::tensor::relu(x);
}

bool ReLU::do_infer_inplace(Tensor& x) const {
  fuse::tensor::relu_inplace(x);
  return true;
}

Tensor Flatten::forward(const Tensor& x) {
  in_shape_ = x.shape();
  std::size_t features = 1;
  for (std::size_t d = 1; d < x.ndim(); ++d) features *= x.dim(d);
  return x.reshaped({x.dim(0), features});
}

Tensor Flatten::backward(const Tensor& dy) {
  return dy.reshaped(in_shape_);
}

Tensor Flatten::do_infer(const Tensor& x) const {
  return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

bool Flatten::do_infer_inplace(Tensor& x) const {
  x.reshape({x.dim(0), x.numel() / x.dim(0)});
  return true;
}

}  // namespace fuse::nn
