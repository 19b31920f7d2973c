#include "nn/layers.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "nn/quant.h"
#include "tensor/init.h"
#include "tensor/quant.h"
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

// GEMM-backend kernel: y2 = W * colb + bias, with
//   W    [oc, k]       (row-major weights)
//   colb [k, nc]       (im2col_batched columns, nc = N * out_h * out_w)
//   y2   [oc, nc]
// The 4x16 register tile keeps the accumulator in vector registers across
// the whole k loop (the compiler vectorizes the 16-wide inner loop), so
// per-FMA memory traffic drops to one 16-float B row load per 4 output
// rows — this is where the >= 1.5x over the naive per-sample loop comes
// from on a single core, on top of the batch-wide weight reuse.
void gemm_conv_tiled(const float* w, const float* colb, const float* bias,
                     float* y2, std::size_t oc, std::size_t k,
                     std::size_t nc) {
  constexpr std::size_t kTileM = 4;
  constexpr std::size_t kTileN = 16;
  const std::size_t n_ctiles = (nc + kTileN - 1) / kTileN;

  fuse::util::parallel_for(0, n_ctiles, [&](std::size_t t0, std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t c0 = t * kTileN;
      const std::size_t cn = std::min(kTileN, nc - c0);
      std::size_t r = 0;
      for (; r + kTileM <= oc; r += kTileM) {
        if (cn == kTileN) {
          float acc0[kTileN], acc1[kTileN], acc2[kTileN], acc3[kTileN];
          for (std::size_t j = 0; j < kTileN; ++j) {
            acc0[j] = bias[r + 0];
            acc1[j] = bias[r + 1];
            acc2[j] = bias[r + 2];
            acc3[j] = bias[r + 3];
          }
          const float* w0 = w + (r + 0) * k;
          const float* w1 = w + (r + 1) * k;
          const float* w2 = w + (r + 2) * k;
          const float* w3 = w + (r + 3) * k;
          for (std::size_t kk = 0; kk < k; ++kk) {
            const float* brow = colb + kk * nc + c0;
            const float a0 = w0[kk], a1 = w1[kk], a2 = w2[kk], a3 = w3[kk];
            for (std::size_t j = 0; j < kTileN; ++j) {
              const float bv = brow[j];
              acc0[j] += a0 * bv;
              acc1[j] += a1 * bv;
              acc2[j] += a2 * bv;
              acc3[j] += a3 * bv;
            }
          }
          float* y0 = y2 + (r + 0) * nc + c0;
          float* y1 = y2 + (r + 1) * nc + c0;
          float* yr2 = y2 + (r + 2) * nc + c0;
          float* yr3 = y2 + (r + 3) * nc + c0;
          for (std::size_t j = 0; j < kTileN; ++j) {
            y0[j] = acc0[j];
            y1[j] = acc1[j];
            yr2[j] = acc2[j];
            yr3[j] = acc3[j];
          }
        } else {
          // Ragged column tail: plain loops.
          for (std::size_t rr = r; rr < r + kTileM; ++rr) {
            const float* wrow = w + rr * k;
            float* yrow = y2 + rr * nc + c0;
            for (std::size_t j = 0; j < cn; ++j) yrow[j] = bias[rr];
            for (std::size_t kk = 0; kk < k; ++kk) {
              const float a = wrow[kk];
              const float* brow = colb + kk * nc + c0;
              for (std::size_t j = 0; j < cn; ++j) yrow[j] += a * brow[j];
            }
          }
        }
      }
      // Ragged row tail.
      for (; r < oc; ++r) {
        const float* wrow = w + r * k;
        float* yrow = y2 + r * nc + c0;
        for (std::size_t j = 0; j < cn; ++j) yrow[j] = bias[r];
        for (std::size_t kk = 0; kk < k; ++kk) {
          const float a = wrow[kk];
          const float* brow = colb + kk * nc + c0;
          for (std::size_t j = 0; j < cn; ++j) yrow[j] += a * brow[j];
        }
      }
    }
  });
}

// Full GEMM-backend convolution: batched im2col, tiled GEMM, then scatter
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
  gemm_conv_tiled(w.data(), colb.data(), b.data(), y2.data(), out_channels,
                  w.dim(1), n * hw);

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

// Int8 convolution: float im2col (shared with the GEMM backend), affine
// quantization of the column matrix into the K-contiguous transposed
// layout, the int8 NT GEMM, then a fused dequantize + zero-point
// correction + bias + scatter into the [N, OC, oh, ow] output.  All
// scratch is thread-local (do_infer is const and thread-shared), recycled
// across calls so steady-shape serving allocates only the output tensor.
Tensor conv_apply_int8(const Tensor& x, const fuse::nn::QuantState& qs,
                       const Tensor& b, std::size_t kernel, std::size_t pad,
                       std::size_t out_channels) {
  const std::size_t n = x.dim(0);
  const std::size_t oh = fuse::tensor::conv_out_size(x.dim(2), kernel, 1,
                                                     pad);
  const std::size_t ow = fuse::tensor::conv_out_size(x.dim(3), kernel, 1,
                                                     pad);
  const std::size_t hw = oh * ow;
  const std::size_t nc = n * hw;
  const std::size_t k = x.dim(1) * kernel * kernel;

  thread_local fuse::tensor::Workspace ws;
  Tensor& colb = ws.slot(0);
  fuse::tensor::im2col_batched_into(x, kernel, kernel, 1, pad, colb);

  thread_local std::vector<std::int8_t> qcolt;
  qcolt.resize(nc * k);
  fuse::tensor::quantize_affine_transposed(colb.data(), k, nc, qs.act,
                                           qcolt.data());

  thread_local std::vector<std::int32_t> acc;
  acc.resize(out_channels * nc);
  fuse::tensor::gemm_s8s8s32_nt(qs.qw.data(), qcolt.data(), acc.data(),
                                out_channels, k, nc);

  Tensor y({n, out_channels, oh, ow});
  const float sx = qs.act.scale;
  const std::int32_t zp = qs.act.zp;
  // `acc` is thread_local: a pool worker naming it inside the parallel
  // region would see its own (empty) vector, so hand the workers this
  // thread's buffer through a plain pointer.
  const std::int32_t* accp = acc.data();
  fuse::util::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t nidx = lo; nidx < hi; ++nidx) {
      float* yp = y.data() + nidx * out_channels * hw;
      for (std::size_t oc = 0; oc < out_channels; ++oc) {
        const float scale = qs.w_scales[oc] * sx;
        const std::int32_t corr = zp * qs.w_row_sums[oc];
        const float bias = b[oc];
        const std::int32_t* arow = accp + oc * nc + nidx * hw;
        float* yrow = yp + oc * hw;
        for (std::size_t p = 0; p < hw; ++p)
          yrow[p] = scale * static_cast<float>(arow[p] - corr) + bias;
      }
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
  quant_.reset();  // derived from weights this layer no longer matches
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
  if (backend == Backend::kInt8) {
    // Uncalibrated layers serve the fp32 GEMM path instead (fresh clones,
    // partially quantized models).
    if (!quant_) return do_infer(x, Backend::kGemm);
    return conv_apply_int8(x, *quant_, b_, kernel_, pad_, out_channels_);
  }
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

Linear::Linear(const Linear& other)
    : Module(other),
      in_features_(other.in_features_),
      out_features_(other.out_features_),
      w_(other.w_),
      b_(other.b_),
      gw_(other.gw_),
      gb_(other.gb_),
      x_(other.x_) {}  // quant_ stays null: int8 state is not copied

Linear& Linear::operator=(const Linear& other) {
  if (this == &other) return *this;
  Module::operator=(other);
  in_features_ = other.in_features_;
  out_features_ = other.out_features_;
  w_ = other.w_;
  b_ = other.b_;
  gw_ = other.gw_;
  gb_ = other.gb_;
  x_ = other.x_;
  quant_.reset();
  return *this;
}

Tensor Linear::forward(const Tensor& x) {
  if (x.ndim() != 2 || x.dim(1) != in_features_)
    throw std::invalid_argument("Linear::forward: bad input shape");
  x_ = x;
  Tensor y = fuse::tensor::matmul(x, w_, Trans::kNo, Trans::kYes);
  fuse::tensor::add_row_bias(y, b_);
  return y;
}

Tensor Linear::do_infer(const Tensor& x, Backend backend) const {
  if (x.ndim() != 2 || x.dim(1) != in_features_)
    throw std::invalid_argument("Linear::infer: bad input shape");
  if (backend == Backend::kInt8 && quant_) {
    // y[n][of] = sw[of]·sx·(Σ_k qx[n][k]·qw[of][k] − zp·Σ_k qw[of][k]) + b.
    // This is the layer the int8 backend exists for: fc1's ~1M-parameter
    // panel moves as 1 byte/weight instead of 4.
    const QuantState& qs = *quant_;
    const std::size_t n = x.dim(0);
    thread_local std::vector<std::int8_t> qx;
    qx.resize(n * in_features_);
    fuse::tensor::quantize_affine(x.data(), n * in_features_, qs.act,
                                  qx.data());
    thread_local std::vector<std::int32_t> acc;
    acc.resize(n * out_features_);
    fuse::tensor::gemm_s8s8s32_nt(qx.data(), qs.qw.data(), acc.data(), n,
                                  in_features_, out_features_);
    Tensor y({n, out_features_});
    const float sx = qs.act.scale;
    const std::int32_t zp = qs.act.zp;
    for (std::size_t r = 0; r < n; ++r) {
      const std::int32_t* arow = acc.data() + r * out_features_;
      float* yrow = y.data() + r * out_features_;
      for (std::size_t of = 0; of < out_features_; ++of)
        yrow[of] = qs.w_scales[of] * sx *
                       static_cast<float>(arow[of] - zp * qs.w_row_sums[of]) +
                   b_[of];
    }
    return y;
  }
  // Every fp32 backend (and kInt8 on an uncalibrated layer) runs x · Wᵀ
  // through tensor::gemm: batches up to its small-M crossover (batch-1
  // serving) take the row kernel that streams W in place, larger ones the
  // blocked path.
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
