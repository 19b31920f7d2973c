#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/simd.h"
#include "util/thread_pool.h"

namespace fuse::tensor {

namespace {

// Cache-blocking parameters.  The micro-kernel accumulates a 4x16 tile of C
// in registers; panels of A/B are walked in K-blocks that fit L1/L2.
constexpr std::size_t kBlockM = 64;
constexpr std::size_t kBlockN = 256;
constexpr std::size_t kBlockK = 256;

struct MatView {
  const float* p;
  std::size_t rows, cols;   // logical (post-transpose) dims
  std::size_t ld;           // leading dimension of the *storage*
  bool trans;               // storage is [cols, rows] if true
};

// Transposing copy: dst[i * ldd + j] = src[j * lds + i] for i < rows,
// j < cols.  Walked in kTransposeTile-square tiles so each source row is read
// contiguously; a plain column walk strides by lds on every load, which for
// the FC weights (lds = 2048 floats) lands every load in the same L1 set.
constexpr std::size_t kTransposeTile = 8;

void transpose_into(const float* src, std::size_t lds, std::size_t rows,
                    std::size_t cols, float* dst, std::size_t ldd) {
  for (std::size_t j0 = 0; j0 < cols; j0 += kTransposeTile) {
    const std::size_t j1 = std::min(cols, j0 + kTransposeTile);
    for (std::size_t i0 = 0; i0 < rows; i0 += kTransposeTile) {
      const std::size_t i1 = std::min(rows, i0 + kTransposeTile);
      for (std::size_t j = j0; j < j1; ++j)
        for (std::size_t i = i0; i < i1; ++i)
          dst[i * ldd + j] = src[j * lds + i];
    }
  }
}

// Packs the [mb x kb] panel at (r0, c0) of op(A) or op(B) into contiguous
// row-major storage.
void pack_panel(const MatView& m, std::size_t r0, std::size_t c0,
                std::size_t mb, std::size_t kb, float* dst) {
  if (!m.trans) {
    for (std::size_t r = 0; r < mb; ++r)
      std::memcpy(dst + r * kb, m.p + (r0 + r) * m.ld + c0, kb * sizeof(float));
  } else {
    transpose_into(m.p + c0 * m.ld + r0, m.ld, mb, kb, dst, kb);
  }
}

// dst[i] += alpha * acc[i] — the single rounding step that folds a finished
// accumulator into C, shared by both GEMM paths so they round identically.
void add_scaled(float* dst, const float* acc, std::size_t len, float alpha) {
  if (alpha == 1.0f) {
    for (std::size_t i = 0; i < len; ++i) dst[i] += acc[i];
  } else {
    for (std::size_t i = 0; i < len; ++i) dst[i] += alpha * acc[i];
  }
}

// C[r, :] over a row-block: C (row-major, ldc) += Apanel * Bpanel.
// Apanel: [mb, kb] packed row-major, Bpanel: [kb, nb] packed row-major.
void micro_gemm(std::size_t mb, std::size_t nb, std::size_t kb,
                const float* a, const float* b, float* c, std::size_t ldc) {
  // 4-row unrolled kernel; the inner loop over n vectorizes (-O3).
  std::size_t r = 0;
  for (; r + 4 <= mb; r += 4) {
    float* c0 = c + (r + 0) * ldc;
    float* c1 = c + (r + 1) * ldc;
    float* c2 = c + (r + 2) * ldc;
    float* c3 = c + (r + 3) * ldc;
    for (std::size_t k = 0; k < kb; ++k) {
      const float a0 = a[(r + 0) * kb + k];
      const float a1 = a[(r + 1) * kb + k];
      const float a2 = a[(r + 2) * kb + k];
      const float a3 = a[(r + 3) * kb + k];
      const float* bk = b + k * nb;
      for (std::size_t n = 0; n < nb; ++n) {
        const float bv = bk[n];
        c0[n] += a0 * bv;
        c1[n] += a1 * bv;
        c2[n] += a2 * bv;
        c3[n] += a3 * bv;
      }
    }
  }
  for (; r < mb; ++r) {
    float* cr = c + r * ldc;
    for (std::size_t k = 0; k < kb; ++k) {
      const float av = a[r * kb + k];
      const float* bk = b + k * nb;
      for (std::size_t n = 0; n < nb; ++n) cr[n] += av * bk[n];
    }
  }
}

// Small-M NT path: A [m, k] row-major times W [n, k] row-major, transposed
// (x · Wᵀ, the batch-1 FC layers).  Each output column j is the dot
// product of A's rows with W's contiguous row j, so W is streamed in place
// instead of being transposed into a pack.  Every accumulator is the same
// sequential-k, zero-started mul-then-add sum the blocked path forms, so
// both paths, every batch size and every ISA variant produce bit-identical
// outputs.
//
// kSmallM is where the scalar generic variant meets the blocked path on
// the fc1 shape: it re-reads W for every row of A, while the blocked path
// pays one pack per call (measured ties between M = 3 and 5, DESIGN.md §3).
// The vector variants transpose each W tile once for all M rows and beat
// the blocked path far beyond it, but the crossover stays shared: moving
// it for them makes fp32 outrun the int8 backend at batch 8, a trade-off
// for its own change.
// kRowMinMacs keeps small layers (fc2) on the calling thread.
constexpr std::size_t kSmallM = 3;
constexpr std::size_t kScalarCols = 8;
constexpr std::size_t kRowMinMacs = 1 << 16;

// The generic variant, the oracle of the vector ones and their tail path:
// output columns [j0, j1) of every row, kScalarCols columns at a time.
void nt_rows_scalar(std::size_t m, std::size_t j0, std::size_t j1,
                    std::size_t n, std::size_t k, float alpha, const float* a,
                    const float* w, float* c) {
  for (; j0 < j1; j0 += kScalarCols) {
    const std::size_t nb = std::min(kScalarCols, j1 - j0);
    const float* wb = w + j0 * k;
    for (std::size_t r = 0; r < m; ++r) {
      const float* ar = a + r * k;
      float acc[kScalarCols] = {};
      if (nb == kScalarCols) {
        for (std::size_t kk = 0; kk < k; ++kk) {
          const float av = ar[kk];
          for (std::size_t jj = 0; jj < kScalarCols; ++jj)
            acc[jj] += av * wb[jj * k + kk];
        }
      } else {
        for (std::size_t jj = 0; jj < nb; ++jj)
          for (std::size_t kk = 0; kk < k; ++kk)
            acc[jj] += ar[kk] * wb[jj * k + kk];
      }
      add_scaled(c + r * n + j0, acc, nb, alpha);
    }
  }
}

// The tile kernel for one block of L = kLanes<V> output columns and M rows
// of A.  Each step loads an L x L tile of W (L rows, L k-values), transposes
// it in registers so vector kk holds W[j0..j0+L, k0+kk], and adds
// broadcast(a[r][k0+kk]) * tile[kk] into row r's accumulator in
// sequential kk: lane jj of that accumulator does exactly the scalar
// acc[jj] += a[kk] * w[jj][kk] sequence.  The k % L tail continues the same
// per-lane sums element by element.  (ops.cpp builds with
// -ffp-contract=off: under target("avx512f") GCC could otherwise fuse the
// multiply-add into an FMA and round differently from the oracle.)
template <typename V, std::size_t M>
[[gnu::always_inline]] inline void nt_tile_block(std::size_t n, std::size_t k,
                                                 float alpha, const float* a,
                                                 const float* wb, float* c) {
  using namespace fuse::util::simd;
  constexpr std::size_t L = kLanes<V>;
  V acc[M] = {};
  std::size_t k0 = 0;
  for (; k0 + L <= k; k0 += L) {
    V t[L];
    // Unrolled so the tile is loaded straight into registers (a rolled
    // loop copies it through the stack).
#pragma GCC unroll 16
    for (std::size_t l = 0; l < L; ++l) vload(t[l], wb + l * k + k0);
    transpose(t);
    for (std::size_t r = 0; r < M; ++r)
      for (std::size_t kk = 0; kk < L; ++kk)
        acc[r] += a[r * k + k0 + kk] * t[kk];
  }
  for (std::size_t r = 0; r < M; ++r) {
    float out[L];
    vstore(out, acc[r]);
    const float* ar = a + r * k;
    for (std::size_t kk = k0; kk < k; ++kk)
      for (std::size_t l = 0; l < L; ++l) out[l] += ar[kk] * wb[l * k + kk];
    add_scaled(c + r * n, out, L, alpha);
  }
}

// Column blocks [b0, b1) of width L: full blocks through the tile kernel
// instantiated for exactly m rows, a partial last block through the scalar
// loop.
template <typename V, std::size_t... Ms>
[[gnu::always_inline]] inline void nt_tile_blocks(
    std::size_t m, std::size_t b0, std::size_t b1, std::size_t n,
    std::size_t k, float alpha, const float* a, const float* w, float* c,
    std::index_sequence<Ms...>) {
  constexpr std::size_t L = fuse::util::simd::kLanes<V>;
  for (std::size_t jb = b0; jb < b1; ++jb) {
    const std::size_t j0 = jb * L;
    if (j0 + L > n) {
      nt_rows_scalar(m, j0, n, n, k, alpha, a, w, c);
      continue;
    }
    // Exactly one Ms + 1 == m (1 <= m <= kSmallM): run that instantiation.
    (void)((m == Ms + 1 &&
            (nt_tile_block<V, Ms + 1>(n, k, alpha, a, w + j0 * k, c + j0),
             true)) ||
           ...);
  }
}

using NtRowsFn = void (*)(std::size_t m, std::size_t b0, std::size_t b1,
                          std::size_t n, std::size_t k, float alpha,
                          const float* a, const float* w, float* c);

// One variant of the small-M NT path: its column-block width and the
// entry point that runs a range of column blocks.
struct NtRowsVariant {
  std::size_t cols;
  NtRowsFn run;
};

void nt_rows_generic(std::size_t m, std::size_t b0, std::size_t b1,
                     std::size_t n, std::size_t k, float alpha, const float* a,
                     const float* w, float* c) {
  nt_rows_scalar(m, b0 * kScalarCols, std::min(n, b1 * kScalarCols), n, k,
                 alpha, a, w, c);
}

#if defined(__x86_64__)
#define FUSE_NT_ROWS_VARIANT(tag, V)                                        \
  __attribute__((target(#tag))) void nt_rows_##tag(                         \
      std::size_t m, std::size_t b0, std::size_t b1, std::size_t n,         \
      std::size_t k, float alpha, const float* a, const float* w,           \
      float* c) {                                                           \
    nt_tile_blocks<V>(m, b0, b1, n, k, alpha, a, w, c,                      \
                      std::make_index_sequence<kSmallM>{});                 \
  }
FUSE_NT_ROWS_VARIANT(avx2, fuse::util::simd::f32x8)
FUSE_NT_ROWS_VARIANT(avx512f, fuse::util::simd::f32x16)
#undef FUSE_NT_ROWS_VARIANT
#endif

NtRowsVariant nt_rows_variant(fuse::util::Isa isa) {
  switch (isa) {
#if defined(__x86_64__)
    case fuse::util::Isa::kAvx2:
      return {8, nt_rows_avx2};
    case fuse::util::Isa::kAvx512f:
      return {16, nt_rows_avx512f};
#endif
    default:
      return {kScalarCols, nt_rows_generic};
  }
}

void gemm_nt_rows(const NtRowsVariant& v, std::size_t m, std::size_t n,
                  std::size_t k, float alpha, const float* a, const float* w,
                  float* c) {
  const std::size_t n_blocks = (n + v.cols - 1) / v.cols;
  const std::size_t min_chunk =
      std::max<std::size_t>(1, kRowMinMacs / (m * k * v.cols));
  // One writer per output column block: deterministic for any worker count.
  fuse::util::parallel_for(0, n_blocks, [&](std::size_t b0, std::size_t b1) {
    v.run(m, b0, b1, n, k, alpha, a, w, c);
  }, min_chunk);
}

void gemm_on(fuse::util::Isa isa, Trans trans_a, Trans trans_b, float alpha,
             const Tensor& a, const Tensor& b, float beta, Tensor& c) {
  if (a.ndim() != 2 || b.ndim() != 2 || c.ndim() != 2)
    throw std::invalid_argument("gemm: all operands must be 2-D");

  const bool ta = trans_a == Trans::kYes;
  const bool tb = trans_b == Trans::kYes;
  const std::size_t m = ta ? a.dim(1) : a.dim(0);
  const std::size_t k = ta ? a.dim(0) : a.dim(1);
  const std::size_t kb_ = tb ? b.dim(1) : b.dim(0);
  const std::size_t n = tb ? b.dim(0) : b.dim(1);
  if (k != kb_)
    throw std::invalid_argument("gemm: inner dimension mismatch " +
                                std::to_string(k) + " vs " +
                                std::to_string(kb_));
  if (c.dim(0) != m || c.dim(1) != n)
    throw std::invalid_argument("gemm: output shape mismatch");

  // beta scaling of C.
  if (beta == 0.0f) {
    c.zero();
  } else if (beta != 1.0f) {
    c *= beta;
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;

  float* cp = c.data();

  // Batch-1 FC layers (x · Wᵀ at M <= kSmallM): with a single M-block the
  // blocked path below would transpose all of W into its pack on every call
  // and run on one thread; the row kernel reads W in place instead and
  // splits the output columns across the pool.
  if (!ta && tb && m <= kSmallM) {
    gemm_nt_rows(nt_rows_variant(isa), m, n, k, alpha, a.data(), b.data(),
                 cp);
    return;
  }

  const MatView va{a.data(), m, k, a.dim(1), ta};
  const MatView vb{b.data(), k, n, b.dim(1), tb};

  // Blocked path: parallel over M row-blocks.  Each task packs its own A
  // and op(B) panels (tile-transposed when stored transposed), so tasks
  // share nothing; every op(B) pack is reused by up to kBlockM rows.
  const std::size_t n_mblocks = (m + kBlockM - 1) / kBlockM;
  fuse::util::parallel_for(0, n_mblocks, [&](std::size_t b0, std::size_t b1) {
    std::vector<float> apack(kBlockM * kBlockK);
    std::vector<float> bpack(kBlockK * kBlockN);
    std::vector<float> cacc(kBlockM * kBlockN);
    for (std::size_t mb_i = b0; mb_i < b1; ++mb_i) {
      const std::size_t r0 = mb_i * kBlockM;
      const std::size_t mb = std::min(kBlockM, m - r0);
      for (std::size_t c0 = 0; c0 < n; c0 += kBlockN) {
        const std::size_t nb = std::min(kBlockN, n - c0);
        std::fill(cacc.begin(), cacc.begin() + mb * nb, 0.0f);
        for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
          const std::size_t kb = std::min(kBlockK, k - k0);
          pack_panel(va, r0, k0, mb, kb, apack.data());
          pack_panel(vb, k0, c0, kb, nb, bpack.data());
          micro_gemm(mb, nb, kb, apack.data(), bpack.data(), cacc.data(), nb);
        }
        for (std::size_t r = 0; r < mb; ++r)
          add_scaled(cp + (r0 + r) * n + c0, cacc.data() + r * nb, nb, alpha);
      }
    }
  });
}

}  // namespace

void gemm(Trans trans_a, Trans trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c) {
  gemm_on(fuse::util::dispatched_isa(), trans_a, trans_b, alpha, a, b, beta,
          c);
}

void gemm(Trans trans_a, Trans trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c, fuse::util::Isa isa) {
  if (!fuse::util::host_supports(isa))
    throw std::invalid_argument(std::string("gemm: this host cannot run ") +
                                fuse::util::isa_name(isa));
  gemm_on(isa, trans_a, trans_b, alpha, a, b, beta, c);
}

Tensor matmul(const Tensor& a, const Tensor& b, Trans trans_a, Trans trans_b) {
  const std::size_t m =
      trans_a == Trans::kYes ? a.dim(1) : a.dim(0);
  const std::size_t n =
      trans_b == Trans::kYes ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  gemm(trans_a, trans_b, 1.0f, a, b, 0.0f, c);
  return c;
}

Tensor im2col(const Tensor& x, std::size_t kh, std::size_t kw,
              std::size_t stride, std::size_t pad) {
  if (x.ndim() != 4) throw std::invalid_argument("im2col: need NCHW");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = conv_out_size(h, kh, stride, pad);
  const std::size_t ow = conv_out_size(w, kw, stride, pad);
  Tensor col({n, c * kh * kw, oh * ow});
  const std::size_t col_stride = c * kh * kw * oh * ow;

  fuse::util::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t img = lo; img < hi; ++img) {
      const float* xp = x.data() + img * c * h * w;
      float* cp = col.data() + img * col_stride;
      std::size_t row = 0;
      for (std::size_t ch = 0; ch < c; ++ch) {
        for (std::size_t ky = 0; ky < kh; ++ky) {
          for (std::size_t kx = 0; kx < kw; ++kx, ++row) {
            float* out = cp + row * oh * ow;
            for (std::size_t oy = 0; oy < oh; ++oy) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride + ky) -
                  static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
                std::fill(out + oy * ow, out + (oy + 1) * ow, 0.0f);
                continue;
              }
              const float* src = xp + (ch * h + iy) * w;
              for (std::size_t ox = 0; ox < ow; ++ox) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                out[oy * ow + ox] =
                    (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w))
                        ? 0.0f
                        : src[ix];
              }
            }
          }
        }
      }
    }
  });
  return col;
}

Tensor im2col_batched(const Tensor& x, std::size_t kh, std::size_t kw,
                      std::size_t stride, std::size_t pad) {
  Tensor col;
  im2col_batched_into(x, kh, kw, stride, pad, col);
  return col;
}

void im2col_batched_into(const Tensor& x, std::size_t kh, std::size_t kw,
                         std::size_t stride, std::size_t pad, Tensor& col) {
  if (x.ndim() != 4) throw std::invalid_argument("im2col_batched: need NCHW");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = conv_out_size(h, kh, stride, pad);
  const std::size_t ow = conv_out_size(w, kw, stride, pad);
  const std::size_t hw = oh * ow;
  col.resize({c * kh * kw, n * hw});
  const std::size_t ld = n * hw;

  fuse::util::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t img = lo; img < hi; ++img) {
      const float* xp = x.data() + img * c * h * w;
      std::size_t row = 0;
      for (std::size_t ch = 0; ch < c; ++ch) {
        for (std::size_t ky = 0; ky < kh; ++ky) {
          for (std::size_t kx = 0; kx < kw; ++kx, ++row) {
            float* out = col.data() + row * ld + img * hw;
            for (std::size_t oy = 0; oy < oh; ++oy) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride + ky) -
                  static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
                std::fill(out + oy * ow, out + (oy + 1) * ow, 0.0f);
                continue;
              }
              const float* src = xp + (ch * h + iy) * w;
              for (std::size_t ox = 0; ox < ow; ++ox) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                out[oy * ow + ox] =
                    (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w))
                        ? 0.0f
                        : src[ix];
              }
            }
          }
        }
      }
    }
  });
}

Tensor col2im(const Tensor& col, std::size_t n, std::size_t c, std::size_t h,
              std::size_t w, std::size_t kh, std::size_t kw,
              std::size_t stride, std::size_t pad) {
  const std::size_t oh = conv_out_size(h, kh, stride, pad);
  const std::size_t ow = conv_out_size(w, kw, stride, pad);
  if (col.ndim() != 3 || col.dim(0) != n || col.dim(1) != c * kh * kw ||
      col.dim(2) != oh * ow)
    throw std::invalid_argument("col2im: column tensor shape mismatch");
  Tensor x({n, c, h, w});
  const std::size_t col_stride = c * kh * kw * oh * ow;

  fuse::util::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t img = lo; img < hi; ++img) {
      const float* cp = col.data() + img * col_stride;
      float* xp = x.data() + img * c * h * w;
      std::size_t row = 0;
      for (std::size_t ch = 0; ch < c; ++ch) {
        for (std::size_t ky = 0; ky < kh; ++ky) {
          for (std::size_t kx = 0; kx < kw; ++kx, ++row) {
            const float* src = cp + row * oh * ow;
            for (std::size_t oy = 0; oy < oh; ++oy) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride + ky) -
                  static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              float* dst = xp + (ch * h + iy) * w;
              for (std::size_t ox = 0; ox < ow; ++ox) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                dst[ix] += src[oy * ow + ox];
              }
            }
          }
        }
      }
    }
  });
  return x;
}

Tensor col2im_batched(const Tensor& col, std::size_t n, std::size_t c,
                      std::size_t h, std::size_t w, std::size_t kh,
                      std::size_t kw, std::size_t stride, std::size_t pad) {
  Tensor x;
  col2im_batched_into(col, n, c, h, w, kh, kw, stride, pad, x);
  return x;
}

void col2im_batched_into(const Tensor& col, std::size_t n, std::size_t c,
                         std::size_t h, std::size_t w, std::size_t kh,
                         std::size_t kw, std::size_t stride, std::size_t pad,
                         Tensor& x) {
  const std::size_t oh = conv_out_size(h, kh, stride, pad);
  const std::size_t ow = conv_out_size(w, kw, stride, pad);
  const std::size_t hw = oh * ow;
  if (col.ndim() != 2 || col.dim(0) != c * kh * kw || col.dim(1) != n * hw)
    throw std::invalid_argument("col2im_batched: column tensor shape mismatch");
  x.resize({n, c, h, w});
  x.zero();
  const std::size_t ld = n * hw;

  // Parallel over images: sample n owns columns [n*hw, (n+1)*hw) of every
  // row, so the scatter-adds of different chunks never touch the same
  // output element (no atomics, deterministic for any worker count).
  fuse::util::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t img = lo; img < hi; ++img) {
      float* xp = x.data() + img * c * h * w;
      std::size_t row = 0;
      for (std::size_t ch = 0; ch < c; ++ch) {
        for (std::size_t ky = 0; ky < kh; ++ky) {
          for (std::size_t kx = 0; kx < kw; ++kx, ++row) {
            const float* src = col.data() + row * ld + img * hw;
            for (std::size_t oy = 0; oy < oh; ++oy) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride + ky) -
                  static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              float* dst = xp + (ch * h + iy) * w;
              for (std::size_t ox = 0; ox < ow; ++ox) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                dst[ix] += src[oy * ow + ox];
              }
            }
          }
        }
      }
    }
  });
}

namespace {

// Elementwise kernels are branchless (ternary selects compile to vector
// blends under -O3) and chunked over the pool for large tensors; the
// min_chunk keeps small activations serial where fork/join overhead would
// dominate.
constexpr std::size_t kElemwiseMinChunk = 1 << 14;

}  // namespace

Tensor relu(const Tensor& x) {
  Tensor y(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  fuse::util::parallel_for(0, x.numel(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      yp[i] = xp[i] > 0.0f ? xp[i] : 0.0f;
  }, kElemwiseMinChunk);
  return y;
}

void relu_inplace(Tensor& x) {
  float* p = x.data();
  fuse::util::parallel_for(0, x.numel(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      p[i] = p[i] > 0.0f ? p[i] : 0.0f;
  }, kElemwiseMinChunk);
}

Tensor relu_backward(const Tensor& dy, const Tensor& x) {
  check_same_shape(dy, x, "relu_backward");
  Tensor dx(dy.shape());
  const float* dyp = dy.data();
  const float* xp = x.data();
  float* dxp = dx.data();
  fuse::util::parallel_for(0, dx.numel(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      dxp[i] = xp[i] > 0.0f ? dyp[i] : 0.0f;
  }, kElemwiseMinChunk);
  return dx;
}

Tensor hadamard(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "hadamard");
  Tensor c(a.shape());
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c.data();
  fuse::util::parallel_for(0, c.numel(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) cp[i] = ap[i] * bp[i];
  }, kElemwiseMinChunk);
  return c;
}

void add_row_bias(Tensor& x, const Tensor& bias) {
  if (x.ndim() != 2 || bias.ndim() != 1 || bias.dim(0) != x.dim(1))
    throw std::invalid_argument("add_row_bias: shape mismatch");
  const std::size_t n = x.dim(0), f = x.dim(1);
  const float* bp = bias.data();
  fuse::util::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      float* row = x.data() + r * f;
      for (std::size_t c = 0; c < f; ++c) row[c] += bp[c];
    }
  }, std::max<std::size_t>(1, kElemwiseMinChunk / std::max<std::size_t>(f, 1)));
}

Tensor sum_rows(const Tensor& x) {
  if (x.ndim() != 2) throw std::invalid_argument("sum_rows: need 2-D");
  const std::size_t n = x.dim(0), f = x.dim(1);
  Tensor out({f});
  float* op = out.data();
  // Parallel over column blocks: every worker owns a disjoint slice of the
  // output and walks the rows in the same fixed order, so the result is
  // deterministic for any worker count.
  fuse::util::parallel_for(0, f, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = 0; r < n; ++r) {
      const float* row = x.data() + r * f;
      for (std::size_t c = lo; c < hi; ++c) op[c] += row[c];
    }
  }, 256);
  return out;
}

Tensor softmax_rows(const Tensor& x) {
  if (x.ndim() != 2) throw std::invalid_argument("softmax_rows: need 2-D");
  Tensor y = x;
  const std::size_t n = x.dim(0), f = x.dim(1);
  for (std::size_t r = 0; r < n; ++r) {
    float* row = y.data() + r * f;
    const float mx = *std::max_element(row, row + f);
    double denom = 0.0;
    for (std::size_t c = 0; c < f; ++c) {
      row[c] = std::exp(row[c] - mx);
      denom += row[c];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::size_t c = 0; c < f; ++c) row[c] *= inv;
  }
  return y;
}

}  // namespace fuse::tensor
