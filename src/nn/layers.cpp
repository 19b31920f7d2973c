#include "nn/layers.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/init.h"
#include "util/thread_pool.h"

namespace fuse::nn {

using fuse::tensor::Trans;

namespace {

// Shared by Conv2d::forward and Conv2d::infer so both paths compute
// bit-identical outputs: y_n = W * col_n + b, parallel over the batch (the
// inner gemm serialises automatically inside pool workers).
Tensor conv_apply(const Tensor& col, const Tensor& w, const Tensor& b,
                  std::size_t n, std::size_t out_channels, std::size_t oh,
                  std::size_t ow) {
  Tensor y({n, out_channels, oh, ow});
  const std::size_t k = w.dim(1);
  const std::size_t hw = oh * ow;
  fuse::util::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t nidx = lo; nidx < hi; ++nidx) {
      const float* colp = col.data() + nidx * k * hw;
      float* yp = y.data() + nidx * out_channels * hw;
      for (std::size_t oc = 0; oc < out_channels; ++oc) {
        const float* wrow = w.data() + oc * k;
        float* yrow = yp + oc * hw;
        const float bias = b[oc];
        for (std::size_t p = 0; p < hw; ++p) yrow[p] = bias;
        for (std::size_t kk = 0; kk < k; ++kk) {
          const float wv = wrow[kk];
          const float* crow = colp + kk * hw;
          for (std::size_t p = 0; p < hw; ++p) yrow[p] += wv * crow[p];
        }
      }
    }
  }, 4);
  return y;
}

// Full GEMM-backend convolution: batched im2col, one bias-started GEMM
// (tensor::gemm_bias: y2 = W * colb + b), then scatter
// of the [oc, N*hw] product back into the [N, oc, oh, ow] layout.  The
// caller provides the colb/y2 buffers (Workspace slots on the training
// path so they recycle across steps, locals on the const inference path),
// so forward() and infer(kGemm) run bit-identical arithmetic through this
// single implementation.
Tensor conv_apply_gemm(const Tensor& x, const Tensor& w, const Tensor& b,
                       std::size_t kernel, std::size_t pad,
                       std::size_t out_channels, Tensor& colb, Tensor& y2) {
  const std::size_t n = x.dim(0);
  const std::size_t oh = fuse::tensor::conv_out_size(x.dim(2), kernel, 1,
                                                     pad);
  const std::size_t ow = fuse::tensor::conv_out_size(x.dim(3), kernel, 1,
                                                     pad);
  const std::size_t hw = oh * ow;
  fuse::tensor::im2col_batched_into(x, kernel, kernel, 1, pad, colb);
  y2.resize({out_channels, n * hw});
  fuse::tensor::gemm_bias(w, colb, b, y2);

  Tensor y({n, out_channels, oh, ow});
  fuse::util::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t nidx = lo; nidx < hi; ++nidx) {
      float* yp = y.data() + nidx * out_channels * hw;
      for (std::size_t oc = 0; oc < out_channels; ++oc)
        std::memcpy(yp + oc * hw, y2.data() + oc * n * hw + nidx * hw,
                    hw * sizeof(float));
    }
  });
  return y;
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
      gb_(other.gb_),
      fwd_backend_(other.fwd_backend_),
      n_(other.n_),
      h_(other.h_),
      w_in_(other.w_in_) {}  // col_ and ws_ start empty: caches not copied

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
  fwd_backend_ = other.fwd_backend_;
  n_ = other.n_;
  h_ = other.h_;
  w_in_ = other.w_in_;
  col_ = Tensor();
  ws_.clear();
  return *this;
}

Tensor Conv2d::forward(const Tensor& x) {
  if (x.ndim() != 4 || x.dim(1) != in_channels_)
    throw std::invalid_argument("Conv2d::forward: bad input shape");
  n_ = x.dim(0);
  h_ = x.dim(2);
  w_in_ = x.dim(3);
  const std::size_t oh = fuse::tensor::conv_out_size(h_, kernel_, 1, pad_);
  const std::size_t ow = fuse::tensor::conv_out_size(w_in_, kernel_, 1, pad_);
  fwd_backend_ = train_backend();

  if (fwd_backend_ == Backend::kGemm) {
    // Cache ONE representation: the batched column matrix (kWsColb), which
    // is exactly what the GEMM backward consumes.  The per-sample col_ of
    // the naive path is released, not maintained alongside.  The kernel
    // owns the buffer shapes; the slots are just recycled storage.
    col_ = Tensor();
    return conv_apply_gemm(x, w_, b_, kernel_, pad_, out_channels_,
                           ws_.slot(kWsColb), ws_.slot(kWsY2));
  }
  ws_.clear();  // symmetric: the naive cache replaces the batched one
  col_ = fuse::tensor::im2col(x, kernel_, kernel_, 1, pad_);
  return conv_apply(col_, w_, b_, n_, out_channels_, oh, ow);
}

Tensor Conv2d::do_infer(const Tensor& x, Backend backend) const {
  if (x.ndim() != 4 || x.dim(1) != in_channels_)
    throw std::invalid_argument("Conv2d::infer: bad input shape");
  if (backend == Backend::kGemm) {
    // Local buffers: do_infer is const and shared across threads, so it
    // cannot touch the member workspace.  Same kernel as forward().
    Tensor colb, y2;
    return conv_apply_gemm(x, w_, b_, kernel_, pad_, out_channels_, colb,
                           y2);
  }
  const std::size_t oh = fuse::tensor::conv_out_size(x.dim(2), kernel_, 1,
                                                     pad_);
  const std::size_t ow = fuse::tensor::conv_out_size(x.dim(3), kernel_, 1,
                                                     pad_);
  const Tensor col = fuse::tensor::im2col(x, kernel_, kernel_, 1, pad_);
  return conv_apply(col, w_, b_, x.dim(0), out_channels_, oh, ow);
}

Tensor Conv2d::backward(const Tensor& dy) {
  const std::size_t oh = fuse::tensor::conv_out_size(h_, kernel_, 1, pad_);
  const std::size_t ow = fuse::tensor::conv_out_size(w_in_, kernel_, 1, pad_);
  const std::size_t hw = oh * ow;
  const std::size_t k = in_channels_ * kernel_ * kernel_;
  if (dy.ndim() != 4 || dy.dim(0) != n_ || dy.dim(1) != out_channels_ ||
      dy.dim(2) != oh || dy.dim(3) != ow)
    throw std::invalid_argument("Conv2d::backward: bad gradient shape");
  if (fwd_backend_ == Backend::kGemm) return backward_gemm(dy, oh, ow);
  if (col_.ndim() != 3 || col_.dim(0) != n_ || col_.dim(1) != k ||
      col_.dim(2) != hw)
    throw std::logic_error(
        "Conv2d::backward: no cached forward (run forward() first — copies "
        "drop the column cache)");

  // Gradients are accumulated into partials per chunk, then reduced, so the
  // batch loop can run in parallel without atomics.
  const std::size_t n_workers = 8;
  const std::size_t chunk = (n_ + n_workers - 1) / n_workers;
  std::vector<Tensor> gw_part;
  std::vector<Tensor> gb_part;
  for (std::size_t i = 0; i < n_workers; ++i) {
    gw_part.emplace_back(fuse::tensor::Shape{out_channels_, k});
    gb_part.emplace_back(fuse::tensor::Shape{out_channels_});
  }

  Tensor dcol({n_, k, hw});
  fuse::util::parallel_for(0, n_workers, [&](std::size_t w0, std::size_t w1) {
    for (std::size_t wk = w0; wk < w1; ++wk) {
      const std::size_t lo = wk * chunk;
      const std::size_t hi = std::min(n_, lo + chunk);
      Tensor& gw = gw_part[wk];
      Tensor& gb = gb_part[wk];
      for (std::size_t nidx = lo; nidx < hi; ++nidx) {
        const float* dyp = dy.data() + nidx * out_channels_ * hw;
        const float* colp = col_.data() + nidx * k * hw;
        float* dcolp = dcol.data() + nidx * k * hw;
        // gw += dy_n * col_n^T ; gb += row sums; dcol_n = W^T * dy_n.
        for (std::size_t oc = 0; oc < out_channels_; ++oc) {
          const float* dyrow = dyp + oc * hw;
          float* gwrow = gw.data() + oc * k;
          double brow = 0.0;
          for (std::size_t p = 0; p < hw; ++p) brow += dyrow[p];
          gb[oc] += static_cast<float>(brow);
          const float* wrow = w_.data() + oc * k;
          for (std::size_t kk = 0; kk < k; ++kk) {
            const float* crow = colp + kk * hw;
            float* dcrow = dcolp + kk * hw;
            const float wv = wrow[kk];
            double acc = 0.0;
            for (std::size_t p = 0; p < hw; ++p) {
              acc += static_cast<double>(dyrow[p]) * crow[p];
              dcrow[p] += wv * dyrow[p];
            }
            gwrow[kk] += static_cast<float>(acc);
          }
        }
      }
    }
  });
  for (std::size_t i = 0; i < n_workers; ++i) {
    gw_ += gw_part[i];
    gb_ += gb_part[i];
  }
  return fuse::tensor::col2im(dcol, n_, in_channels_, h_, w_in_, kernel_,
                              kernel_, 1, pad_);
}

Tensor Conv2d::backward_gemm(const Tensor& dy, std::size_t oh,
                             std::size_t ow) {
  const std::size_t hw = oh * ow;
  const std::size_t nhw = n_ * hw;
  const std::size_t k = in_channels_ * kernel_ * kernel_;
  if (ws_.slots() <= kWsColb || ws_.at(kWsColb).ndim() != 2 ||
      ws_.at(kWsColb).dim(0) != k || ws_.at(kWsColb).dim(1) != nhw)
    throw std::logic_error(
        "Conv2d::backward: no cached forward (run forward() first — clones "
        "drop the workspace cache)");
  const Tensor& colb = ws_.at(kWsColb);

  // Pack dy [N, OC, oh, ow] into the [OC, N*hw] layout of the forward
  // product, so the gradients are plain 2-D GEMMs on the cached columns.
  Tensor& dy2 = ws_.get(kWsDy2, {out_channels_, nhw});
  fuse::util::parallel_for(0, n_, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t nidx = lo; nidx < hi; ++nidx) {
      const float* dyp = dy.data() + nidx * out_channels_ * hw;
      for (std::size_t oc = 0; oc < out_channels_; ++oc)
        std::memcpy(dy2.data() + oc * nhw + nidx * hw, dyp + oc * hw,
                    hw * sizeof(float));
    }
  });

  // gw += dy2 · colbᵀ  — one blocked GEMM over the whole batch (the naive
  // path does this sample by sample with the weight panel re-read each
  // time).  beta = 1 keeps the accumulate-into-gradients contract.
  fuse::tensor::gemm(Trans::kNo, Trans::kYes, 1.0f, dy2, colb, 1.0f, gw_);

  // gb += row sums of dy2 (double accumulator, like the naive reference).
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    const float* row = dy2.data() + oc * nhw;
    double acc = 0.0;
    for (std::size_t p = 0; p < nhw; ++p) acc += row[p];
    gb_[oc] += static_cast<float>(acc);
  }

  // dcol = Wᵀ · dy2, scattered back to image space.
  Tensor& dcol = ws_.get(kWsDcol, {k, nhw});
  fuse::tensor::gemm(Trans::kYes, Trans::kNo, 1.0f, w_, dy2, 0.0f, dcol);
  return fuse::tensor::col2im_batched(dcol, n_, in_channels_, h_, w_in_,
                                      kernel_, kernel_, 1, pad_);
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

Tensor Linear::do_infer(const Tensor& x, Backend /*backend*/) const {
  if (x.ndim() != 2 || x.dim(1) != in_features_)
    throw std::invalid_argument("Linear::infer: bad input shape");
  // Every backend runs x · Wᵀ through tensor::gemm (the layer has no
  // naive variant: the GEMM is its reference).
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

Tensor ReLU::do_infer(const Tensor& x, Backend /*backend*/) const {
  return fuse::tensor::relu(x);
}

bool ReLU::do_infer_inplace(Tensor& x, Backend /*backend*/) const {
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

Tensor Flatten::do_infer(const Tensor& x, Backend /*backend*/) const {
  return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

bool Flatten::do_infer_inplace(Tensor& x, Backend /*backend*/) const {
  x.reshape({x.dim(0), x.numel() / x.dim(0)});
  return true;
}

}  // namespace fuse::nn
