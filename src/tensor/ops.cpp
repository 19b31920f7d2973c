#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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
// ragged last column tile is always packed, zero-padded to NR.  A
// convolution's op(B) is an image's column matrix, never stored: each of
// its panels is gathered from the image (Im2col below) and C's tiles fold
// straight into the NCHW output.
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

// Implicit im2col: col(x_i), the [C*kernel*kernel, oh*ow] column matrix
// of image i of an NCHW batch, holds x_i[ch][oy + ky - pad][ox + kx - pad]
// (zero outside the image) at row (ch, ky, kx), column oy * ow + ox.  The
// GEMM gathers its panels from xp, the batch zero-padded by `pad` on every
// side, where that element is xp_i[ch][oy + ky][ox + kx]; the column
// matrix itself is never stored.
struct Im2col {
  const float* xp;  // [N, C, hp, wp]
  std::size_t c, hp, wp, kernel, oh, ow;
};

// One GEMM call, flattened to pointers and strides:
//   op(A)[r][k] = a[r * a_rs + k * a_ks]
//   op(B)[k][j] = tb ? b[j * ldb + k] : b[k * ldb + j]
//   C[r][j]     = c[r * ldc + j]
// A convolution batches it by image.  With n_images > 1, op(B) and C
// repeat once per image (image i's C starts at c + i * c_image) and column
// tiles never cross an image.  With k_images > 1, the sum runs over k once
// per image in image order (image i's op(A) starts at a + i * a_image).
// With `im`, op(B) of image i is col(x_i) (its transpose when tb).
struct Job {
  std::size_t m = 0, n = 0, k = 0;
  const float* a = nullptr;
  std::size_t a_rs = 0, a_ks = 0;
  const float* b = nullptr;
  std::size_t ldb = 0;
  bool tb = false;
  float* c = nullptr;
  std::size_t ldc = 0;
  float alpha = 1.0f, beta = 0.0f;
  const float* bias = nullptr;  // non-null: accumulators start at bias[r], C = sum
  std::size_t n_images = 1, c_image = 0;
  std::size_t k_images = 1, a_image = 0;
  const Im2col* im = nullptr;
  bool pack = false;  // op(B) panels are packed (more than one row tile)
  std::size_t rows_per_task = 0, col_tiles = 0;  // col_tiles per image
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

// Offsets into a padded image of `count` kernel taps from tap t (tap
// (ch, ky, kx) sits at (ch * hp + ky) * wp + kx) and of `count` output
// pixels from pixel p (pixel (oy, ox) at oy * wp + ox): col(x)[t][p] is
// xp[tap offset + pixel offset].  check_conv keeps them inside int32.
inline void tap_offsets(const Im2col& im, std::size_t t, std::size_t count,
                        std::int32_t* off) {
  std::size_t ch = t / (im.kernel * im.kernel);
  std::size_t ky = t / im.kernel % im.kernel, kx = t % im.kernel;
  for (std::size_t i = 0; i < count; ++i) {
    off[i] = static_cast<std::int32_t>((ch * im.hp + ky) * im.wp + kx);
    if (++kx == im.kernel) {
      kx = 0;
      if (++ky == im.kernel) ky = 0, ++ch;
    }
  }
}

inline void pixel_offsets(const Im2col& im, std::size_t p, std::size_t count,
                          std::int32_t* off) {
  std::size_t oy = p / im.ow, ox = p % im.ow;
  for (std::size_t i = 0; i < count; ++i) {
    off[i] = static_cast<std::int32_t>(oy * im.wp + ox);
    if (++ox == im.ow) ox = 0, ++oy;
  }
}

// A variant's panel gather: dst[q * NR + j] = xp[row_off[q] + col_off[j]]
// for q < kc and j < NR.  The AVX2 and AVX-512F gathers move a panel row
// about 3 times faster than a scalar loop (0.17-0.24 against 0.62 ns per
// float on the 4-core AVX-512 host).
using GatherFn = void (*)(const float* xp, const std::int32_t* row_off,
                          std::size_t kc, const std::int32_t* col_off,
                          float* dst);

[[gnu::noinline]] void gather_generic(const float* xp,
                                      const std::int32_t* row_off,
                                      std::size_t kc,
                                      const std::int32_t* col_off,
                                      float* dst) {
  constexpr std::size_t NR = 2 * fuse::util::simd::kLanes<
                                     fuse::util::simd::f32x4>;
  for (std::size_t q = 0; q < kc; ++q)
    for (std::size_t j = 0; j < NR; ++j)
      dst[q * NR + j] = xp[row_off[q] + col_off[j]];
}

#if defined(__x86_64__)
[[gnu::noinline, gnu::target("avx2")]] void gather_avx2(
    const float* xp, const std::int32_t* row_off, std::size_t kc,
    const std::int32_t* col_off, float* dst) {
  const __m256i c0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col_off));
  const __m256i c1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col_off + 8));
  for (std::size_t q = 0; q < kc; ++q) {
    const float* src = xp + row_off[q];
    _mm256_storeu_ps(dst + q * 16, _mm256_i32gather_ps(src, c0, 4));
    _mm256_storeu_ps(dst + q * 16 + 8, _mm256_i32gather_ps(src, c1, 4));
  }
}

[[gnu::noinline, gnu::target("avx512f")]] void gather_avx512f(
    const float* xp, const std::int32_t* row_off, std::size_t kc,
    const std::int32_t* col_off, float* dst) {
  // The masked form with a zero source: GCC 12 warns that the plain
  // intrinsic reads an uninitialized pass-through vector.
  const __m512i c0 = _mm512_loadu_si512(col_off);
  const __m512i c1 = _mm512_loadu_si512(col_off + 16);
  const __m512 zero = _mm512_setzero_ps();
  for (std::size_t q = 0; q < kc; ++q) {
    const float* src = xp + row_off[q];
    _mm512_storeu_ps(dst + q * 32,
                     _mm512_mask_i32gather_ps(zero, 0xffff, c0, src, 4));
    _mm512_storeu_ps(dst + q * 32 + 16,
                     _mm512_mask_i32gather_ps(zero, 0xffff, c1, src, 4));
  }
}
#endif

// Packs op(B)[k0, k0 + kc) x columns [j0, j0 + nvalid) of image `img` into
// dst [kc][NR], zero-padding columns nvalid..NR, gathered from its padded
// copy.  Without tb op(B) is col(x_img) (rows are kernel taps, columns
// output pixels); with tb it is col(x_img)ᵀ.  Either way panel element
// [q][j] is xp[row offset q + column offset j]; columns past nvalid read
// offset 0 and are then zeroed.
template <typename V, GatherFn kGather>
[[gnu::always_inline]] inline void pack_image_panel(const Job& g,
                                                    std::size_t img,
                                                    std::size_t k0,
                                                    std::size_t kc,
                                                    std::size_t j0,
                                                    std::size_t nvalid,
                                                    float* dst) {
  constexpr std::size_t NR = 2 * fuse::util::simd::kLanes<V>;
  const Im2col& im = *g.im;
  const float* xp = im.xp + img * im.c * im.hp * im.wp;
  std::int32_t row_off[kBlockK], col_off[NR] = {};
  if (g.tb) {
    pixel_offsets(im, k0, kc, row_off);
    tap_offsets(im, j0, nvalid, col_off);
  } else {
    tap_offsets(im, k0, kc, row_off);
    pixel_offsets(im, j0, nvalid, col_off);
  }
  kGather(xp, row_off, kc, col_off, dst);
  if (nvalid < NR)
    for (std::size_t q = 0; q < kc; ++q)
      std::fill(dst + q * NR + nvalid, dst + (q + 1) * NR, 0.0f);
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

// Tasks [t0, t1) of `g`: task t is row block t / tiles times column tile
// t % tiles over all images, so every C element has exactly one writer.
template <typename V, std::size_t MR, MicroFn kMicro, GatherFn kGather>
[[gnu::always_inline]] inline void run_tasks(const Job& g, std::size_t t0,
                                             std::size_t t1) {
  constexpr std::size_t NR = 2 * fuse::util::simd::kLanes<V>;
  alignas(64) float panel[kBlockK * NR];
  alignas(64) float acc[kTilesPerBlock * MR * NR];
  const std::size_t tiles = g.n_images * g.col_tiles;
  for (std::size_t t = t0; t < t1; ++t) {
    const std::size_t r0 = (t / tiles) * g.rows_per_task;
    const std::size_t r1 = std::min(g.m, r0 + g.rows_per_task);
    const std::size_t n_img = t % tiles / g.col_tiles;
    const std::size_t j0 = t % tiles % g.col_tiles * NR;
    const std::size_t nvalid = std::min(NR, g.n - j0);
    const bool pack = g.pack || nvalid < NR;
    for (std::size_t r = r0; r < r1; ++r)
      std::fill_n(acc + (r - r0) * NR, NR, g.bias ? g.bias[r] : 0.0f);
    // In place, op(B) is streamed once over all of k; a pack is K-blocked.
    const std::size_t block_k = pack ? kBlockK : g.k;
    for (std::size_t k_img = 0; k_img < g.k_images; ++k_img) {
      for (std::size_t k0 = 0; k0 < g.k; k0 += block_k) {
        const std::size_t kc = std::min(block_k, g.k - k0);
        if (g.im != nullptr)
          pack_image_panel<V, kGather>(g, g.tb ? k_img : n_img, k0, kc, j0,
                                       nvalid, panel);
        else if (pack)
          pack_panel<V>(g, k0, kc, j0, nvalid, panel);
        for (std::size_t r = r0; r < r1; r += MR) {
          const std::size_t mr = std::min(MR, r1 - r);
          const float* a = g.a + k_img * g.a_image + r * g.a_rs + k0 * g.a_ks;
          float* tile = acc + (r - r0) * NR;
          if (pack)
            kMicro(false, mr, kc, a, g.a_rs, g.a_ks, panel, NR, tile);
          else if (g.tb)
            kMicro(true, mr, kc, a, g.a_rs, g.a_ks, g.b + j0 * g.ldb + k0,
                   g.ldb, tile);
          else
            kMicro(false, mr, kc, a, g.a_rs, g.a_ks, g.b + k0 * g.ldb + j0,
                   g.ldb, tile);
        }
      }
    }
    // Fold each finished sum into C: C = sum under a bias start, else
    // C = beta * C + alpha * sum, C unread when beta == 0.
    for (std::size_t r = r0; r < r1; ++r) {
      const float* s = acc + (r - r0) * NR;
      float* cr = g.c + n_img * g.c_image + r * g.ldc + j0;
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
// attributes, with gather_<tag> as its image-panel gather.
#define FUSE_GEMM_VARIANT(tag, V, MR, ...)                                    \
  [[gnu::noinline]] __VA_ARGS__ void micro_##tag(                             \
      bool trans_b, std::size_t mr, std::size_t kc, const float* a,           \
      std::size_t a_rs, std::size_t a_ks, const float* b, std::size_t ldb,    \
      float* acc) {                                                           \
    micro_any<V, MR>(trans_b, mr, kc, a, a_rs, a_ks, b, ldb, acc);            \
  }                                                                           \
  __VA_ARGS__ void run_tasks_##tag(const Job& g, std::size_t t0,              \
                                   std::size_t t1) {                          \
    run_tasks<V, MR, micro_##tag, gather_##tag>(g, t0, t1);                   \
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

// Tiles g for variant v; returns its task count.
std::size_t plan(const Variant& v, Job& g) {
  g.pack = g.im != nullptr || g.m > v.mr;
  g.rows_per_task = g.pack ? v.mr * kTilesPerBlock : v.mr;
  g.col_tiles = (g.n + v.nr - 1) / v.nr;
  return (g.m + g.rows_per_task - 1) / g.rows_per_task * g.n_images *
         g.col_tiles;
}

void run(fuse::util::Isa isa, Job& g) {
  const Variant v = variant(isa);
  const std::size_t tasks = plan(v, g);
  const std::size_t task_macs = std::max<std::size_t>(
      1, std::min(g.m, g.rows_per_task) * g.k * g.k_images * v.nr);
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
  Job g{.m = m, .n = n, .k = k, .a = a.data(), .a_rs = ta ? 1 : lda,
        .a_ks = ta ? lda : 1, .b = b.data(), .ldb = b.dim(1), .tb = tb,
        .c = c.data(), .ldc = n, .alpha = alpha, .beta = beta};
  run(isa, g);
}

// Checks a stride-1 convolution of x [N, C, H, W] by weights
// w [OC, C*kernel*kernel] with zero padding `pad`.
void check_conv(const Tensor& x, const Tensor& w, std::size_t kernel,
                std::size_t pad, const char* fn) {
  if (x.ndim() != 4 || w.ndim() != 2 || kernel == 0)
    throw std::invalid_argument(std::string(fn) + ": bad operand rank");
  if (w.dim(1) != x.dim(1) * kernel * kernel || x.dim(2) + 2 * pad < kernel ||
      x.dim(3) + 2 * pad < kernel)
    throw std::invalid_argument(std::string(fn) + ": shape mismatch");
  if (x.dim(1) * (x.dim(2) + 2 * pad) * (x.dim(3) + 2 * pad) > INT32_MAX)
    throw std::invalid_argument(std::string(fn) + ": image too large");
}

// The implicit column matrices of batch x [N, C, H, W]: their panels are
// gathered from x zero-padded by `pad` on every side of each image,
// [N, C, H + 2 pad, W + 2 pad], which is written to `store` (x itself is
// used when pad is 0).  That copy is 1.56 times the input at 8 x 8 with
// pad 1, where the column matrices would be 9 times it.
Im2col implicit_columns(const Tensor& x, std::size_t kernel, std::size_t pad,
                        Tensor& store) {
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t hp = h + 2 * pad, wp = w + 2 * pad;
  if (pad > 0) {
    store = Tensor({n, c, hp, wp});
    fuse::util::parallel_for(0, n * c, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t plane = lo; plane < hi; ++plane)
        for (std::size_t y = 0; y < h; ++y)
          std::copy_n(x.data() + (plane * h + y) * w, w,
                      store.data() + (plane * hp + y + pad) * wp + pad);
    }, std::max<std::size_t>(1, (1 << 14) / (hp * wp)));
  }
  return {pad > 0 ? store.data() : x.data(), c, hp, wp, kernel,
          hp - kernel + 1, wp - kernel + 1};
}

// Adds one image's column gradients [C*kernel*kernel, oh*ow] into its
// [C, H, W] input gradient, in col2im's (ch, ky, kx, oy, ox) order.  Kept
// apart from col2im, the oracle the tests hold this path to.
void col2im_add(const float* col, std::size_t c, std::size_t h, std::size_t w,
                std::size_t kernel, std::size_t pad, float* x) {
  const std::size_t oh = conv_out_size(h, kernel, 1, pad);
  const std::size_t ow = conv_out_size(w, kernel, 1, pad);
  std::size_t row = 0;
  for (std::size_t ch = 0; ch < c; ++ch) {
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx, ++row) {
        const float* src = col + row * oh * ow;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                    static_cast<std::ptrdiff_t>(pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
          float* dst = x + (ch * h + static_cast<std::size_t>(iy)) * w;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox + kx) -
                                      static_cast<std::ptrdiff_t>(pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
            dst[ix] += src[oy * ow + ox];
          }
        }
      }
    }
  }
}

Tensor conv2d_on(fuse::util::Isa isa, const Tensor& x, const Tensor& w,
                 const Tensor& b, std::size_t kernel, std::size_t pad) {
  check_conv(x, w, kernel, pad, "conv2d");
  const std::size_t oc = w.dim(0), k = w.dim(1);
  if (b.ndim() != 1 || b.dim(0) != oc)
    throw std::invalid_argument("conv2d: bias shape mismatch");
  Tensor xp;
  const Im2col im = implicit_columns(x, kernel, pad, xp);
  const std::size_t hw = im.oh * im.ow;
  Tensor y({x.dim(0), oc, im.oh, im.ow});
  if (y.numel() == 0) return y;
  Job g{.m = oc, .n = hw, .k = k, .a = w.data(), .a_rs = k, .a_ks = 1,
        .c = y.data(), .ldc = hw, .bias = b.data(), .n_images = x.dim(0),
        .c_image = oc * hw, .im = &im};
  run(isa, g);
  return y;
}

Tensor conv2d_backward_on(fuse::util::Isa isa, const Tensor& x,
                          const Tensor& w, const Tensor& dy,
                          std::size_t kernel, std::size_t pad, Tensor& gw,
                          Tensor& gb) {
  check_conv(x, w, kernel, pad, "conv2d_backward");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const std::size_t oc = w.dim(0), k = w.dim(1);
  const std::size_t oh = conv_out_size(h, kernel, 1, pad);
  const std::size_t ow = conv_out_size(wd, kernel, 1, pad), hw = oh * ow;
  if (dy.ndim() != 4 || dy.dim(0) != n || dy.dim(1) != oc ||
      dy.dim(2) != oh || dy.dim(3) != ow)
    throw std::invalid_argument("conv2d_backward: bad gradient shape");
  if (gw.shape() != w.shape() || gb.ndim() != 1 || gb.dim(0) != oc)
    throw std::invalid_argument("conv2d_backward: bad parameter gradients");
  Tensor dx({n, c, h, wd});
  if (dy.numel() == 0 || k == 0) return dx;

  // gw += dy · col(x)ᵀ: one GEMM whose k runs over every image's pixels,
  // image after image.
  {
    Tensor xp;
    const Im2col im = implicit_columns(x, kernel, pad, xp);
    Job g{.m = oc, .n = k, .k = hw, .a = dy.data(), .a_rs = hw, .a_ks = 1,
          .tb = true, .c = gw.data(), .ldc = k, .beta = 1.0f,
          .k_images = n, .a_image = oc * hw, .im = &im};
    run(isa, g);
  }

  // gb += per-channel sums of dy, accumulated in double.
  for (std::size_t o = 0; o < oc; ++o) {
    double acc = 0.0;
    for (std::size_t img = 0; img < n; ++img) {
      const float* row = dy.data() + (img * oc + o) * hw;
      for (std::size_t p = 0; p < hw; ++p) acc += row[p];
    }
    gb[o] += static_cast<float>(acc);
  }

  // dx image by image: the column gradients Wᵀ · dy_i go to a scratch the
  // size of one image's columns, then scatter-add into dx_i.  Each worker
  // runs its images' GEMMs inline.
  const Variant v = variant(isa);
  fuse::util::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    std::vector<float> dcol(k * hw);
    for (std::size_t img = lo; img < hi; ++img) {
      Job g{.m = k, .n = hw, .k = oc, .a = w.data(), .a_rs = 1, .a_ks = k,
            .b = dy.data() + img * oc * hw, .ldb = hw, .c = dcol.data(),
            .ldc = hw};
      v.run(g, 0, plan(v, g));
      col2im_add(dcol.data(), c, h, wd, kernel, pad,
                 dx.data() + img * c * h * wd);
    }
  });
  return dx;
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

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
              std::size_t kernel, std::size_t pad) {
  return conv2d_on(fuse::util::dispatched_isa(), x, w, b, kernel, pad);
}

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
              std::size_t kernel, std::size_t pad, fuse::util::Isa isa) {
  check_isa(isa, "conv2d");
  return conv2d_on(isa, x, w, b, kernel, pad);
}

Tensor conv2d_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                       std::size_t kernel, std::size_t pad, Tensor& gw,
                       Tensor& gb) {
  return conv2d_backward_on(fuse::util::dispatched_isa(), x, w, dy, kernel,
                            pad, gw, gb);
}

Tensor conv2d_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                       std::size_t kernel, std::size_t pad, Tensor& gw,
                       Tensor& gb, fuse::util::Isa isa) {
  check_isa(isa, "conv2d_backward");
  return conv2d_backward_on(isa, x, w, dy, kernel, pad, gw, gb);
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
