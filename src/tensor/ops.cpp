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

// One register-tiled GEMM microkernel (Goto & van de Geijn, "Anatomy of
// High-Performance Matrix Multiplication", ACM TOMS 2008) runs every shape
// and transpose.  C is cut into tiles of MR rows x NR = 2L columns (L =
// lanes of the variant's vector); the kernel keeps a tile's MR x 2
// accumulator vectors in registers and, for each k, adds broadcast(op(A)
// [r][k]) * op(B)[k][tile] to them.  op(A) is read in place (a broadcast
// needs no layout).  op(B) is read in place while op(A) fits one row tile
// (an NT tile is then transposed in registers, so M = 1 never pays for a
// pack); otherwise each task packs one K-block x NR panel of op(B) with the
// same transposes and reuses it for every row tile of its row block.  A
// ragged last column tile is always packed, zero-padded to NR.
//
// Bit-identity by construction: every accumulator starts at zero (or at
// the row's bias for the conv forward), adds a * b in sequential k, one
// rounded multiply and one rounded add (this file builds with
// -ffp-contract=off), and carries across K-blocks through a scratch tile
// in k order.  Lanes never mix, so each output is the scalar loop's sum
// whatever the variant, tile, row count or worker count.
constexpr std::size_t kBlockK = 256;        // K-block of a packed panel
constexpr std::size_t kTilesPerBlock = 16;  // row tiles per task
// Tasks below this many multiply-adds stay on the calling thread.
constexpr std::size_t kMinTaskMacs = 1 << 16;

// One GEMM call, flattened to pointers and strides:
//   op(A)[r][k] = a[r * a_rs + k * a_ks]
//   op(B)[k][j] = tb ? b[j * ldb + k] : b[k * ldb + j]
//   C[r][j]     = c[r * ldc + j]
struct Job {
  std::size_t m, n, k;
  const float* a;
  std::size_t a_rs, a_ks;
  const float* b;
  std::size_t ldb;
  bool tb;
  float* c;
  std::size_t ldc;
  float alpha, beta;
  const float* bias;  // non-null: accumulators start at bias[r], C = sum
  bool pack;          // op(B) panels are packed (more than one row tile)
  std::size_t rows_per_task, col_tiles;
};

// The microkernel: rows [0, Mr) of one tile over kc values of k.  `acc` is
// the tile's scratch ([Mr][NR], row stride NR): loaded first, stored last.
// Without kTransB, op(B) row k of the tile is the NR floats at b + k * ldb
// (a packed panel or NN/TN in place).  With it, b points at W row j0 of an
// NT operand: each L x L tile of W is loaded and transposed in registers so
// vector q holds op(B)[k0 + q][tile], one L-column half at a time.
template <typename V, std::size_t Mr, bool kTransB>
[[gnu::always_inline]] inline void micro_tile(std::size_t kc, const float* a,
                                              std::size_t a_rs,
                                              std::size_t a_ks, const float* b,
                                              std::size_t ldb, float* acc) {
  using namespace fuse::util::simd;
  constexpr std::size_t L = kLanes<V>;
  constexpr std::size_t NR = 2 * L;
  if constexpr (!kTransB) {
    V s[Mr][2];
    for (std::size_t r = 0; r < Mr; ++r) {
      vload(s[r][0], acc + r * NR);
      vload(s[r][1], acc + r * NR + L);
    }
    for (std::size_t kk = 0; kk < kc; ++kk) {
      V b0, b1;
      vload(b0, b + kk * ldb);
      vload(b1, b + kk * ldb + L);
      for (std::size_t r = 0; r < Mr; ++r) {
        const float av = a[r * a_rs + kk * a_ks];
        s[r][0] += av * b0;
        s[r][1] += av * b1;
      }
    }
    for (std::size_t r = 0; r < Mr; ++r) {
      vstore(acc + r * NR, s[r][0]);
      vstore(acc + r * NR + L, s[r][1]);
    }
  } else {
#pragma GCC unroll 1
    for (std::size_t h = 0; h < 2; ++h) {
      const float* w = b + h * L * ldb;
      V s[Mr];
      for (std::size_t r = 0; r < Mr; ++r) vload(s[r], acc + r * NR + h * L);
      std::size_t k0 = 0;
      for (; k0 + L <= kc; k0 += L) {
        V t[L];
        load_tile(t, w + k0, ldb);
        transpose(t);
        for (std::size_t q = 0; q < L; ++q)
          for (std::size_t r = 0; r < Mr; ++r)
            s[r] += a[r * a_rs + (k0 + q) * a_ks] * t[q];
      }
      for (; k0 < kc; ++k0) {
        float col[L];
        for (std::size_t l = 0; l < L; ++l) col[l] = w[l * ldb + k0];
        V t;
        vload(t, col);
        for (std::size_t r = 0; r < Mr; ++r) s[r] += a[r * a_rs + k0 * a_ks] * t;
      }
      for (std::size_t r = 0; r < Mr; ++r) vstore(acc + r * NR + h * L, s[r]);
    }
  }
}

// Packs op(B)[k0, k0 + kc) x columns [j0, j0 + nvalid) into dst [kc][NR],
// zero-padding columns nvalid..NR.
template <typename V>
[[gnu::always_inline]] inline void pack_panel(const Job& g, std::size_t k0,
                                              std::size_t kc, std::size_t j0,
                                              std::size_t nvalid, float* dst) {
  using namespace fuse::util::simd;
  constexpr std::size_t L = kLanes<V>;
  constexpr std::size_t NR = 2 * L;
  if (!g.tb) {
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const float* src = g.b + (k0 + kk) * g.ldb + j0;
      float* d = dst + kk * NR;
      if (nvalid == NR) {
        V lo, hi;
        vload(lo, src);
        vload(hi, src + L);
        vstore(d, lo);
        vstore(d + L, hi);
      } else {
        std::copy_n(src, nvalid, d);
        std::fill(d + nvalid, d + NR, 0.0f);
      }
    }
    return;
  }
  // W rows j0 + c0 + l, l < rows, are op(B)'s columns; missing rows of a
  // ragged tile load as zeros.
  for (std::size_t c0 = 0; c0 < NR; c0 += L) {
    const float* w = g.b + (j0 + c0) * g.ldb + k0;
    const std::size_t rows = c0 < nvalid ? std::min(L, nvalid - c0) : 0;
    std::size_t kk = 0;
    for (; kk + L <= kc; kk += L) {
      V t[L];
      if (rows == L) {
        load_tile(t, w + kk, g.ldb);
      } else {
        for (std::size_t l = 0; l < L; ++l) {
          t[l] = V{};
          if (l < rows) vload(t[l], w + l * g.ldb + kk);
        }
      }
      transpose(t);
      for (std::size_t q = 0; q < L; ++q) vstore(dst + (kk + q) * NR + c0, t[q]);
    }
    for (std::size_t l = 0; l < L; ++l)
      for (std::size_t q = kk; q < kc; ++q)
        dst[q * NR + c0 + l] = l < rows ? w[l * g.ldb + q] : 0.0f;
  }
}

// Runs micro_tile instantiated for exactly mr rows (1 <= mr <= sizeof...(Ms)).
template <typename V, bool kTransB, std::size_t... Ms>
[[gnu::always_inline]] inline void micro_tile_rows(
    std::size_t mr, std::size_t kc, const float* a, std::size_t a_rs,
    std::size_t a_ks, const float* b, std::size_t ldb, float* acc,
    std::index_sequence<Ms...>) {
  (void)((mr == Ms + 1 &&
          (micro_tile<V, Ms + 1, kTransB>(kc, a, a_rs, a_ks, b, ldb, acc),
           true)) ||
         ...);
}

// A variant's microkernels behind one call (each variant compiles them into
// a function of their own, so the task loop around them stays small).
using MicroFn = void (*)(bool trans_b, std::size_t mr, std::size_t kc,
                         const float* a, std::size_t a_rs, std::size_t a_ks,
                         const float* b, std::size_t ldb, float* acc);

template <typename V, std::size_t MR>
[[gnu::always_inline]] inline void micro_any(bool trans_b, std::size_t mr,
                                             std::size_t kc, const float* a,
                                             std::size_t a_rs,
                                             std::size_t a_ks, const float* b,
                                             std::size_t ldb, float* acc) {
  const auto rows = std::make_index_sequence<MR>{};
  if (trans_b)
    micro_tile_rows<V, true>(mr, kc, a, a_rs, a_ks, b, ldb, acc, rows);
  else
    micro_tile_rows<V, false>(mr, kc, a, a_rs, a_ks, b, ldb, acc, rows);
}

// Tasks [t0, t1) of `g`: task t is row block t / col_tiles times column
// tile t % col_tiles, so every C element has exactly one writer.
template <typename V, std::size_t MR, MicroFn kMicro>
[[gnu::always_inline]] inline void run_tasks(const Job& g, std::size_t t0,
                                             std::size_t t1) {
  constexpr std::size_t NR = 2 * fuse::util::simd::kLanes<V>;
  alignas(64) float panel[kBlockK * NR];
  alignas(64) float acc[kTilesPerBlock * MR * NR];
  for (std::size_t t = t0; t < t1; ++t) {
    const std::size_t r0 = (t / g.col_tiles) * g.rows_per_task;
    const std::size_t r1 = std::min(g.m, r0 + g.rows_per_task);
    const std::size_t j0 = (t % g.col_tiles) * NR;
    const std::size_t nvalid = std::min(NR, g.n - j0);
    const bool pack = g.pack || nvalid < NR;
    for (std::size_t r = r0; r < r1; ++r)
      std::fill_n(acc + (r - r0) * NR, NR, g.bias ? g.bias[r] : 0.0f);
    // In place, op(B) is streamed once over all of k; a pack is K-blocked.
    const std::size_t block_k = pack ? kBlockK : g.k;
    for (std::size_t k0 = 0; k0 < g.k; k0 += block_k) {
      const std::size_t kc = std::min(block_k, g.k - k0);
      if (pack) pack_panel<V>(g, k0, kc, j0, nvalid, panel);
      for (std::size_t r = r0; r < r1; r += MR) {
        const std::size_t mr = std::min(MR, r1 - r);
        const float* a = g.a + r * g.a_rs + k0 * g.a_ks;
        float* tile = acc + (r - r0) * NR;
        if (pack)
          kMicro(false, mr, kc, a, g.a_rs, g.a_ks, panel, NR, tile);
        else if (g.tb)
          kMicro(true, mr, kc, a, g.a_rs, g.a_ks, g.b + j0 * g.ldb + k0, g.ldb,
                 tile);
        else
          kMicro(false, mr, kc, a, g.a_rs, g.a_ks, g.b + k0 * g.ldb + j0,
                 g.ldb, tile);
      }
    }
    // Fold each finished sum into C: C = sum under a bias start, else
    // C = beta * C + alpha * sum, C unread when beta == 0.
    for (std::size_t r = r0; r < r1; ++r) {
      const float* s = acc + (r - r0) * NR;
      float* cr = g.c + r * g.ldc + j0;
      if (g.bias != nullptr) {
        std::copy_n(s, nvalid, cr);
      } else if (g.beta == 0.0f) {
        for (std::size_t j = 0; j < nvalid; ++j) cr[j] = 0.0f + g.alpha * s[j];
      } else if (g.beta == 1.0f) {
        for (std::size_t j = 0; j < nvalid; ++j) cr[j] += g.alpha * s[j];
      } else {
        for (std::size_t j = 0; j < nvalid; ++j)
          cr[j] = g.beta * cr[j] + g.alpha * s[j];
      }
    }
  }
}

// One variant of the kernel: its tile shape and its task runner.
struct Variant {
  std::size_t mr, nr;
  void (*run)(const Job& g, std::size_t t0, std::size_t t1);
};

// Stamps out one variant: its microkernels, its task runner and its table
// entry, compiled for vector type V with MR-row tiles under the given
// attributes.
#define FUSE_GEMM_VARIANT(tag, V, MR, ...)                                    \
  [[gnu::noinline]] __VA_ARGS__ void micro_##tag(                             \
      bool trans_b, std::size_t mr, std::size_t kc, const float* a,           \
      std::size_t a_rs, std::size_t a_ks, const float* b, std::size_t ldb,    \
      float* acc) {                                                           \
    micro_any<V, MR>(trans_b, mr, kc, a, a_rs, a_ks, b, ldb, acc);            \
  }                                                                           \
  __VA_ARGS__ void run_tasks_##tag(const Job& g, std::size_t t0,              \
                                   std::size_t t1) {                          \
    run_tasks<V, MR, micro_##tag>(g, t0, t1);                                 \
  }                                                                           \
  constexpr Variant kVariant_##tag{MR, 2 * fuse::util::simd::kLanes<V>,       \
                                   run_tasks_##tag};

FUSE_GEMM_VARIANT(generic, fuse::util::simd::f32x4, 4)
#if defined(__x86_64__)
FUSE_GEMM_VARIANT(avx2, fuse::util::simd::f32x8, 6,
                  __attribute__((target("avx2"))))
FUSE_GEMM_VARIANT(avx512f, fuse::util::simd::f32x16, 8,
                  __attribute__((target("avx512f"))))
#endif
#undef FUSE_GEMM_VARIANT

Variant variant(fuse::util::Isa isa) {
  switch (isa) {
#if defined(__x86_64__)
    case fuse::util::Isa::kAvx2:
      return kVariant_avx2;
    case fuse::util::Isa::kAvx512f:
      return kVariant_avx512f;
#endif
    default:
      return kVariant_generic;
  }
}

void run(fuse::util::Isa isa, Job& g) {
  const Variant v = variant(isa);
  g.pack = g.m > v.mr;
  g.rows_per_task = g.pack ? v.mr * kTilesPerBlock : v.mr;
  g.col_tiles = (g.n + v.nr - 1) / v.nr;
  const std::size_t tasks =
      (g.m + g.rows_per_task - 1) / g.rows_per_task * g.col_tiles;
  const std::size_t task_macs =
      std::max<std::size_t>(1, std::min(g.m, g.rows_per_task) * g.k * v.nr);
  fuse::util::parallel_for(
      0, tasks, [&](std::size_t t0, std::size_t t1) { v.run(g, t0, t1); },
      std::max<std::size_t>(1, kMinTaskMacs / task_macs));
}

void check_isa(fuse::util::Isa isa, const char* fn) {
  if (!fuse::util::host_supports(isa))
    throw std::invalid_argument(std::string(fn) + ": this host cannot run " +
                                fuse::util::isa_name(isa));
}

void gemm_on(fuse::util::Isa isa, Trans trans_a, Trans trans_b, float alpha,
             const Tensor& a, const Tensor& b, float beta, Tensor& c) {
  if (a.ndim() != 2 || b.ndim() != 2 || c.ndim() != 2)
    throw std::invalid_argument("gemm: all operands must be 2-D");

  const bool ta = trans_a == Trans::kYes;
  const bool tb = trans_b == Trans::kYes;
  const std::size_t m = ta ? a.dim(1) : a.dim(0);
  const std::size_t k = ta ? a.dim(0) : a.dim(1);
  const std::size_t kb = tb ? b.dim(1) : b.dim(0);
  const std::size_t n = tb ? b.dim(0) : b.dim(1);
  if (k != kb)
    throw std::invalid_argument("gemm: inner dimension mismatch " +
                                std::to_string(k) + " vs " +
                                std::to_string(kb));
  if (c.dim(0) != m || c.dim(1) != n)
    throw std::invalid_argument("gemm: output shape mismatch");

  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    if (beta == 0.0f) {
      c.zero();
    } else if (beta != 1.0f) {
      c *= beta;
    }
    return;
  }
  const std::size_t lda = a.dim(1);
  Job g{m, n, k, a.data(), ta ? 1 : lda, ta ? lda : 1, b.data(), b.dim(1), tb,
        c.data(), n, alpha, beta, nullptr, false, 0, 0};
  run(isa, g);
}

void gemm_bias_on(fuse::util::Isa isa, const Tensor& a, const Tensor& b,
                  const Tensor& bias, Tensor& c) {
  if (a.ndim() != 2 || b.ndim() != 2 || c.ndim() != 2 || bias.ndim() != 1)
    throw std::invalid_argument("gemm_bias: bad operand rank");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k || c.dim(0) != m || c.dim(1) != n || bias.dim(0) != m)
    throw std::invalid_argument("gemm_bias: shape mismatch");
  if (m == 0 || n == 0) return;
  Job g{m, n, k, a.data(), k, 1, b.data(), n, false, c.data(), n, 1.0f, 0.0f,
        bias.data(), false, 0, 0};
  run(isa, g);
}

}  // namespace

void gemm(Trans trans_a, Trans trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c) {
  gemm_on(fuse::util::dispatched_isa(), trans_a, trans_b, alpha, a, b, beta,
          c);
}

void gemm(Trans trans_a, Trans trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c, fuse::util::Isa isa) {
  check_isa(isa, "gemm");
  gemm_on(isa, trans_a, trans_b, alpha, a, b, beta, c);
}

void gemm_bias(const Tensor& a, const Tensor& b, const Tensor& bias,
               Tensor& c) {
  gemm_bias_on(fuse::util::dispatched_isa(), a, b, bias, c);
}

void gemm_bias(const Tensor& a, const Tensor& b, const Tensor& bias,
               Tensor& c, fuse::util::Isa isa) {
  check_isa(isa, "gemm_bias");
  gemm_bias_on(isa, a, b, bias, c);
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
