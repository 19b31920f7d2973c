#include "nn/layers.h"

#include <algorithm>
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

const Tensor& Conv2d::do_forward(const Tensor& x, Tape& tape) {
  check_conv_input(x, in_channels_, "Conv2d::forward");
  Tape::Record& r = tape.push(*this);
  // The padded copy the forward gathers from is what backward needs.
  fuse::tensor::conv2d(x, w_, b_, kernel_, pad_, r.saved, r.out);
  return r.out;
}

Tensor Conv2d::do_infer(const Tensor& x) const {
  check_conv_input(x, in_channels_, "Conv2d::infer");
  return fuse::tensor::conv2d(x, w_, b_, kernel_, pad_);
}

const Tensor& Conv2d::do_backward(const Tensor& dy, Tape& tape,
                                  InputGrad input) {
  const Tape::Record& r = tape.pop(*this);
  Tensor* dx = input == InputGrad::kCompute ? &tape.grad_for(dy) : nullptr;
  fuse::tensor::conv2d_backward(r.saved, w_, dy, kernel_, pad_, gw_, gb_, dx);
  return dx != nullptr ? *dx : tape.no_grad();
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

const Tensor& Linear::do_forward(const Tensor& x, Tape& tape) {
  if (x.ndim() != 2 || x.dim(1) != in_features_)
    throw std::invalid_argument("Linear::forward: bad input shape");
  Tape::Record& r = tape.push(*this);
  r.read = &x;
  r.out.resize({x.dim(0), out_features_});
  fuse::tensor::gemm(Trans::kNo, Trans::kYes, 1.0f, x, w_, 0.0f, r.out);
  fuse::tensor::add_row_bias(r.out, b_);
  return r.out;
}

Tensor Linear::do_infer(const Tensor& x) const {
  if (x.ndim() != 2 || x.dim(1) != in_features_)
    throw std::invalid_argument("Linear::infer: bad input shape");
  Tensor y = fuse::tensor::matmul(x, w_, Trans::kNo, Trans::kYes);
  fuse::tensor::add_row_bias(y, b_);
  return y;
}

const Tensor& Linear::do_backward(const Tensor& dy, Tape& tape,
                                  InputGrad input) {
  const Tensor& x = *tape.pop(*this).read;
  if (dy.ndim() != 2 || dy.dim(0) != x.dim(0) || dy.dim(1) != out_features_)
    throw std::invalid_argument("Linear::backward: bad gradient shape");
  // gw += dy^T x ; gb += column sums of dy ; dx = dy W.
  fuse::tensor::gemm(Trans::kYes, Trans::kNo, 1.0f, dy, x, 1.0f, gw_);
  gb_ += fuse::tensor::sum_rows(dy);
  if (input == InputGrad::kSkip) return tape.no_grad();
  Tensor& dx = tape.grad_for(dy);
  dx.resize({dy.dim(0), in_features_});
  fuse::tensor::gemm(Trans::kNo, Trans::kNo, 1.0f, dy, w_, 0.0f, dx);
  return dx;
}

namespace {

// `t` where the tape owns it, else a copy of it in `copy` (tape storage):
// the in-place layers never write a caller's tensor.
Tensor& writable(Tensor* owned, const Tensor& t, Tensor& copy) {
  if (owned != nullptr) return *owned;
  copy.resize(t.shape());
  std::copy_n(t.data(), t.numel(), copy.data());
  return copy;
}

}  // namespace

const Tensor& ReLU::do_forward(const Tensor& x, Tape& tape) {
  Tensor* owned = tape.own_activation(x);
  Tape::Record& r = tape.push(*this);
  Tensor& y = writable(owned, x, r.out);
  fuse::tensor::relu_inplace(y);
  r.read = &y;
  return y;
}

const Tensor& ReLU::do_backward(const Tensor& dy, Tape& tape,
                                InputGrad input) {
  const Tape::Record& r = tape.pop(*this);
  if (input == InputGrad::kSkip) return tape.no_grad();
  Tensor& dx = writable(tape.own_grad(dy), dy, tape.grad_for(dy));
  fuse::tensor::relu_backward_inplace(dx, *r.read);
  return dx;
}

Tensor ReLU::do_infer(const Tensor& x) const {
  return fuse::tensor::relu(x);
}

bool ReLU::do_infer_inplace(Tensor& x) const {
  fuse::tensor::relu_inplace(x);
  return true;
}

const Tensor& Flatten::do_forward(const Tensor& x, Tape& tape) {
  Tensor* owned = tape.own_activation(x);
  Tape::Record& r = tape.push(*this);
  r.shape = x.shape();
  std::size_t features = 1;
  for (std::size_t d = 1; d < x.ndim(); ++d) features *= x.dim(d);
  Tensor& y = writable(owned, x, r.out);
  y.reshape({r.shape.at(0), features});
  return y;
}

const Tensor& Flatten::do_backward(const Tensor& dy, Tape& tape,
                                   InputGrad input) {
  const Tape::Record& r = tape.pop(*this);
  if (input == InputGrad::kSkip) return tape.no_grad();
  Tensor& dx = writable(tape.own_grad(dy), dy, tape.grad_for(dy));
  dx.reshape(r.shape);
  return dx;
}

Tensor Flatten::do_infer(const Tensor& x) const {
  return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

bool Flatten::do_infer_inplace(Tensor& x) const {
  x.reshape({x.dim(0), x.numel() / x.dim(0)});
  return true;
}

}  // namespace fuse::nn
