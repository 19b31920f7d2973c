#include "dsp/plan.h"

#include <cmath>
#include <complex>
#include <stdexcept>
#include <utility>

#include "util/isa.h"
#include "util/simd.h"

namespace fuse::dsp {

/// A variant's entry points: the lane kernels below, compiled for one
/// vector type, reading the plan's tables.
struct LaneKernels {
  struct Tables {
    std::size_t n;
    const std::uint32_t* bitrev;
    const float* tw_re;
    const float* tw_im;
  };
  void (*load_rows)(const Tables&, const cfloat*, std::size_t, std::size_t,
                    std::size_t, const float*, float*, float*);
  void (*load_columns)(const Tables&, const float*, const float*,
                       std::size_t, std::size_t, const float*, bool, float*,
                       float*);
  void (*butterflies)(const Tables&, float*, float*, bool);
  void (*store_rows)(const Tables&, const float*, const float*, std::size_t,
                     float*, float*, std::size_t);
  void (*store_shifted)(const Tables&, const float*, const float*,
                        std::size_t, cfloat*, std::size_t);
};

namespace {
constexpr double kTau = 6.283185307179586476925286766559;

using Tables = LaneKernels::Tables;

// ------------------------------------------------------- lane kernels --
// One template per kernel over a GCC/clang vector type V of L floats
// (util/simd.h).  Element k of lane l lives at buf[k * L + l], so row k of
// a lane buffer is one V.  Loads and stores are pure data movement, and
// the arithmetic is elementwise, so lane l sees exactly the row path's
// float operations.

using fuse::util::simd::kLanes;
using fuse::util::simd::load_tile;
using fuse::util::simd::transpose;
using fuse::util::simd::vload;
using fuse::util::simd::vstore;

/// Interleaves (re, im) into complex order: lo holds re[0..L/2) and
/// im[0..L/2) as L/2 complex values, hi the upper halves.
template <typename V, std::size_t... P>
[[gnu::always_inline]] inline void zip(const V& re, const V& im, V& lo,
                                       V& hi, std::index_sequence<P...>) {
  constexpr std::size_t L = sizeof...(P);
  constexpr std::size_t H = L / 2;
  lo = __builtin_shufflevector(re, im, ((P & 1) ? L + P / 2 : P / 2)...);
  hi = __builtin_shufflevector(re, im,
                               ((P & 1) ? L + H + P / 2 : H + P / 2)...);
}

/// Zeroes lane-buffer rows bitrev[s] for s in [from, n): the padding of a
/// load with count = from.
template <typename V>
[[gnu::always_inline]] inline void zero_padding(const Tables& t,
                                                std::size_t from, float* re,
                                                float* im) {
  constexpr std::size_t L = kLanes<V>;
  const V zero = {};
  for (std::size_t s = from; s < t.n; ++s) {
    vstore(re + t.bitrev[s] * L, zero);
    vstore(im + t.bitrev[s] * L, zero);
  }
}

template <typename V>
[[gnu::always_inline]] inline void load_rows_kernel(
    const Tables& t, const cfloat* src, std::size_t row_stride,
    std::size_t rows, std::size_t count, const float* window, float* re,
    float* im) {
  constexpr std::size_t L = kLanes<V>;
  // A partial group zeroes everything once; a full group only the pad.
  zero_padding<V>(t, rows < L ? 0 : count, re, im);
  std::size_t s = 0;
  if (rows == L) {
    // L/2 samples of every row per block: each row's slice is one vector
    // of interleaved (re, im), so after the transpose vector 2j holds the
    // real parts of sample s + j across the lanes and 2j + 1 the
    // imaginary parts.
    for (; s + L / 2 <= count; s += L / 2) {
      V m[L];
      load_tile(m, src + s, row_stride);
      transpose(m);
      for (std::size_t j = 0; j < L / 2; ++j) {
        V xr = m[2 * j], xi = m[2 * j + 1];
        if (window != nullptr) {
          xr = xr * window[s + j];
          xi = xi * window[s + j];
        }
        vstore(re + t.bitrev[s + j] * L, xr);
        vstore(im + t.bitrev[s + j] * L, xi);
      }
    }
  }
  for (; s < count; ++s) {
    float* dr = re + t.bitrev[s] * L;
    float* di = im + t.bitrev[s] * L;
    for (std::size_t l = 0; l < rows; ++l) {
      cfloat x = src[l * row_stride + s];
      if (window != nullptr) x *= window[s];
      dr[l] = x.real();
      di[l] = x.imag();
    }
  }
}

template <typename V>
[[gnu::always_inline]] inline void load_columns_kernel(
    const Tables& t, const float* re_src, const float* im_src,
    std::size_t stride, std::size_t count, const float* window,
    bool remove_mean, float* re, float* im) {
  constexpr std::size_t L = kLanes<V>;
  // The mean accumulates in sample order from zero and is scaled by the
  // float reciprocal, exactly as the reference's complex mean is.
  V mr = {}, mi = {};
  if (remove_mean) {
    for (std::size_t s = 0; s < count; ++s) {
      V xr, xi;
      vload(xr, re_src + s * stride);
      vload(xi, im_src + s * stride);
      mr += xr;
      mi += xi;
    }
    const float inv = 1.0f / static_cast<float>(count);
    mr = mr * inv;
    mi = mi * inv;
  }
  zero_padding<V>(t, count, re, im);
  for (std::size_t s = 0; s < count; ++s) {
    V xr, xi;
    vload(xr, re_src + s * stride);
    vload(xi, im_src + s * stride);
    // Subtracting a zero mean is exact, so the no-clutter case skips it.
    if (remove_mean) {
      xr = xr - mr;
      xi = xi - mi;
    }
    if (window != nullptr) {
      xr = xr * window[s];
      xi = xi * window[s];
    }
    vstore(re + t.bitrev[s] * L, xr);
    vstore(im + t.bitrev[s] * L, xi);
  }
}

/// FftPlan::butterflies with every float replaced by a vector of L lanes:
/// the same operations in the same order, once per lane.
template <typename V>
[[gnu::always_inline]] inline void butterflies_kernel(const Tables& t,
                                                      float* re, float* im,
                                                      bool inverse) {
  constexpr std::size_t L = kLanes<V>;
  const std::size_t n = t.n;
  const float sign = inverse ? 1.0f : -1.0f;
  std::size_t off = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const float* wr = t.tw_re + off;
    const float* wi = t.tw_im + off;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t j = 0; j < half; ++j) {
        const float twr = wr[j];
        const float twi = sign * -wi[j];
        float* re_lo = re + (i + j) * L;
        float* im_lo = im + (i + j) * L;
        float* re_hi = re_lo + half * L;
        float* im_hi = im_lo + half * L;
        V xr, xi, ur, ui;
        vload(xr, re_hi);
        vload(xi, im_hi);
        vload(ur, re_lo);
        vload(ui, im_lo);
        const V vr = xr * twr - xi * twi;
        const V vi = xr * twi + xi * twr;
        vstore(re_lo, ur + vr);
        vstore(im_lo, ui + vi);
        vstore(re_hi, ur - vr);
        vstore(im_hi, ui - vi);
      }
    }
    off += half;
  }
  if (inverse) {
    const float inv = 1.0f / static_cast<float>(n);
    for (std::size_t k = 0; k < n * L; k += L) {
      V xr, xi;
      vload(xr, re + k);
      vload(xi, im + k);
      vstore(re + k, xr * inv);
      vstore(im + k, xi * inv);
    }
  }
}

template <typename V>
[[gnu::always_inline]] inline void store_rows_kernel(
    const Tables& t, const float* re, const float* im, std::size_t rows,
    float* re_dst, float* im_dst, std::size_t row_stride) {
  constexpr std::size_t L = kLanes<V>;
  std::size_t k = 0;
  if (rows == L) {
    // L elements of every lane per block: transposed, each lane's run is
    // one vector store.
    for (; k + L <= t.n; k += L) {
      V mr[L], mi[L];
      load_tile(mr, re + k * L, L);
      load_tile(mi, im + k * L, L);
      transpose(mr);
      transpose(mi);
      for (std::size_t l = 0; l < L; ++l) {
        vstore(re_dst + l * row_stride + k, mr[l]);
        vstore(im_dst + l * row_stride + k, mi[l]);
      }
    }
  }
  for (; k < t.n; ++k)
    for (std::size_t l = 0; l < rows; ++l) {
      re_dst[l * row_stride + k] = re[k * L + l];
      im_dst[l * row_stride + k] = im[k * L + l];
    }
}

template <typename V>
[[gnu::always_inline]] inline void store_shifted_kernel(
    const Tables& t, const float* re, const float* im, std::size_t rows,
    cfloat* dst, std::size_t row_stride) {
  constexpr std::size_t L = kLanes<V>;
  const std::size_t n = t.n;
  const std::size_t shift = (n + 1) / 2;  // fftshift: dst[d] = X[d + shift]
  if (rows == L && shift % L == 0) {
    // Whole blocks of L elements move together, so each block is a
    // transpose plus a (re, im) zip into two vector stores per lane.
    for (std::size_t k = 0; k < n; k += L) {
      const std::size_t d = (k + n - shift) % n;
      V mr[L], mi[L];
      load_tile(mr, re + k * L, L);
      load_tile(mi, im + k * L, L);
      transpose(mr);
      transpose(mi);
      for (std::size_t l = 0; l < L; ++l) {
        V lo, hi;
        zip(mr[l], mi[l], lo, hi, std::make_index_sequence<L>{});
        vstore(dst + l * row_stride + d, lo);
        vstore(dst + l * row_stride + d + L / 2, hi);
      }
    }
    return;
  }
  for (std::size_t d = 0; d < n; ++d) {
    const std::size_t k = (d + shift) % n;
    for (std::size_t l = 0; l < rows; ++l)
      dst[l * row_stride + d] = cfloat(re[k * L + l], im[k * L + l]);
  }
}

using fuse::util::simd::f32x4;
#if defined(__x86_64__)
using fuse::util::simd::f32x16;
using fuse::util::simd::f32x8;
#endif

// Stamps out one variant: its entry points compiled for vector type V
// under the given attributes, and their table.
#define FUSE_LANE_VARIANT(tag, V, ...)                                       \
  __VA_ARGS__ void load_rows_##tag(const Tables& t, const cfloat* src,       \
                                   std::size_t row_stride, std::size_t rows, \
                                   std::size_t count, const float* window,   \
                                   float* re, float* im) {                   \
    load_rows_kernel<V>(t, src, row_stride, rows, count, window, re, im);    \
  }                                                                          \
  __VA_ARGS__ void load_columns_##tag(                                       \
      const Tables& t, const float* re_src, const float* im_src,             \
      std::size_t stride, std::size_t count, const float* window,            \
      bool remove_mean, float* re, float* im) {                              \
    load_columns_kernel<V>(t, re_src, im_src, stride, count, window,         \
                           remove_mean, re, im);                             \
  }                                                                          \
  __VA_ARGS__ void butterflies_##tag(const Tables& t, float* re, float* im,  \
                                     bool inverse) {                         \
    butterflies_kernel<V>(t, re, im, inverse);                               \
  }                                                                          \
  __VA_ARGS__ void store_rows_##tag(const Tables& t, const float* re,        \
                                    const float* im, std::size_t rows,       \
                                    float* re_dst, float* im_dst,            \
                                    std::size_t row_stride) {                \
    store_rows_kernel<V>(t, re, im, rows, re_dst, im_dst, row_stride);       \
  }                                                                          \
  __VA_ARGS__ void store_shifted_##tag(const Tables& t, const float* re,     \
                                       const float* im, std::size_t rows,    \
                                       cfloat* dst, std::size_t row_stride) { \
    store_shifted_kernel<V>(t, re, im, rows, dst, row_stride);               \
  }                                                                          \
  constexpr LaneKernels kKernels_##tag{load_rows_##tag, load_columns_##tag,  \
                                       butterflies_##tag, store_rows_##tag,  \
                                       store_shifted_##tag};

FUSE_LANE_VARIANT(generic, f32x4)
#if defined(__x86_64__)
FUSE_LANE_VARIANT(avx2, f32x8, __attribute__((target("avx2"))))
FUSE_LANE_VARIANT(avx512f, f32x16, __attribute__((target("avx512f"))))
#endif

#undef FUSE_LANE_VARIANT

using fuse::util::Isa;
using fuse::util::isa_name;

const LaneVariant kGeneric{isa_name(Isa::kGeneric), 4, &kKernels_generic};
#if defined(__x86_64__)
const LaneVariant kAvx2{isa_name(Isa::kAvx2), 8, &kKernels_avx2};
const LaneVariant kAvx512f{isa_name(Isa::kAvx512f), 16, &kKernels_avx512f};
#endif

const LaneVariant* lane_variant(Isa isa) {
  switch (isa) {
#if defined(__x86_64__)
    case Isa::kAvx2:
      return &kAvx2;
    case Isa::kAvx512f:
      return &kAvx512f;
#endif
    default:
      return &kGeneric;
  }
}

std::vector<const LaneVariant*> detect_host_variants() {
  std::vector<const LaneVariant*> out;
  for (const Isa isa : fuse::util::host_isas())
    out.push_back(lane_variant(isa));
  return out;
}

}  // namespace

std::span<const LaneVariant* const> host_lane_variants() {
  static const std::vector<const LaneVariant*> variants =
      detect_host_variants();
  return variants;
}

const LaneVariant& dispatched_lane_variant() {
  static const LaneVariant& widest = *host_lane_variants().back();
  return widest;
}

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_pow2(n))
    throw std::invalid_argument("FftPlan: size must be a power of two");

  // Bit-reversal permutation, generated with the same incremental carry
  // walk fft_inplace uses (j visits the bit-reversed sequence).
  bitrev_.assign(n_, 0);
  for (std::size_t i = 1, j = 0; i < n_; ++i) {
    std::size_t bit = n_ >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = static_cast<std::uint32_t>(j);
  }

  // Twiddle tables per stage, generated with fft_inplace's exact float
  // recurrence (w starts at 1 and is repeatedly multiplied by wlen) so the
  // planned butterflies reproduce its rounding bit for bit.  Only the
  // forward tables are stored: cos(-x) == cos(x) and sin(-x) == -sin(x)
  // exactly in IEEE arithmetic, and the conjugate recurrence produces the
  // exact conjugate sequence, so the inverse butterfly just negates tw_im_.
  tw_re_.reserve(n_ > 1 ? n_ - 1 : 0);
  tw_im_.reserve(n_ > 1 ? n_ - 1 : 0);
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const double ang = -kTau / static_cast<double>(len);
    const cfloat wlen(static_cast<float>(std::cos(ang)),
                      static_cast<float>(std::sin(ang)));
    cfloat w(1.0f, 0.0f);
    for (std::size_t j = 0; j < len / 2; ++j) {
      tw_re_.push_back(w.real());
      tw_im_.push_back(w.imag());
      w *= wlen;
    }
  }
}

void FftPlan::load_lanes(const LaneVariant& v, const cfloat* src,
                         std::size_t row_stride, std::size_t rows,
                         std::size_t count, const float* window, float* re,
                         float* im) const {
  if (count > n_)
    throw std::invalid_argument("FftPlan::load_lanes: count > size");
  if (rows > v.lanes)
    throw std::invalid_argument("FftPlan::load_lanes: rows > lanes");
  const LaneKernels::Tables t{n_, bitrev_.data(), tw_re_.data(), tw_im_.data()};
  v.kernels->load_rows(t, src, row_stride, rows, count, window, re, im);
}

void FftPlan::load_lane_columns(const LaneVariant& v, const float* re_src,
                                const float* im_src, std::size_t stride,
                                std::size_t count, const float* window,
                                bool remove_mean, float* re,
                                float* im) const {
  if (count > n_)
    throw std::invalid_argument("FftPlan::load_lane_columns: count > size");
  const LaneKernels::Tables t{n_, bitrev_.data(), tw_re_.data(), tw_im_.data()};
  v.kernels->load_columns(t, re_src, im_src, stride, count, window,
                          remove_mean, re, im);
}

void FftPlan::execute_lanes(const LaneVariant& v, float* re, float* im,
                            bool inverse) const {
  const LaneKernels::Tables t{n_, bitrev_.data(), tw_re_.data(), tw_im_.data()};
  v.kernels->butterflies(t, re, im, inverse);
}

void FftPlan::store_lanes(const LaneVariant& v, const float* re,
                          const float* im, std::size_t rows, float* re_dst,
                          float* im_dst, std::size_t row_stride) const {
  if (rows > v.lanes)
    throw std::invalid_argument("FftPlan::store_lanes: rows > lanes");
  const LaneKernels::Tables t{n_, bitrev_.data(), tw_re_.data(),
                              tw_im_.data()};
  v.kernels->store_rows(t, re, im, rows, re_dst, im_dst, row_stride);
}

void FftPlan::store_lanes_shifted(const LaneVariant& v, const float* re,
                                  const float* im, std::size_t rows,
                                  cfloat* dst, std::size_t row_stride) const {
  if (rows > v.lanes)
    throw std::invalid_argument("FftPlan::store_lanes_shifted: rows > lanes");
  const LaneKernels::Tables t{n_, bitrev_.data(), tw_re_.data(),
                              tw_im_.data()};
  v.kernels->store_shifted(t, re, im, rows, dst, row_stride);
}

void FftPlan::butterflies(float* re, float* im, bool inverse) const {
  // The twiddle sign handles forward vs inverse; everything else is shared.
  const float sign = inverse ? 1.0f : -1.0f;  // tw_im_ stores sin(-ang)
  std::size_t off = 0;
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len >> 1;
    const float* wr = tw_re_.data() + off;
    const float* wi = tw_im_.data() + off;
    for (std::size_t i = 0; i < n_; i += len) {
      float* re_lo = re + i;
      float* im_lo = im + i;
      float* re_hi = re_lo + half;
      float* im_hi = im_lo + half;
      for (std::size_t j = 0; j < half; ++j) {
        const float twi = sign * -wi[j];  // == -sin(-ang)*sign: fwd wi, inv -wi
        const float xr = re_hi[j];
        const float xi = im_hi[j];
        const float vr = xr * wr[j] - xi * twi;
        const float vi = xr * twi + xi * wr[j];
        const float ur = re_lo[j];
        const float ui = im_lo[j];
        re_lo[j] = ur + vr;
        im_lo[j] = ui + vi;
        re_hi[j] = ur - vr;
        im_hi[j] = ui - vi;
      }
    }
    off += half;
  }
  if (inverse) {
    const float inv = 1.0f / static_cast<float>(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      re[i] *= inv;
      im[i] *= inv;
    }
  }
}

void FftPlan::execute_many(float* re, float* im, std::size_t rows,
                           bool inverse) const {
  for (std::size_t r = 0; r < rows; ++r) {
    float* rre = re + r * n_;
    float* rim = im + r * n_;
    for (std::size_t i = 1; i < n_; ++i) {
      const std::uint32_t j = bitrev_[i];
      if (i < j) {
        std::swap(rre[i], rre[j]);
        std::swap(rim[i], rim[j]);
      }
    }
    butterflies(rre, rim, inverse);
  }
}

}  // namespace fuse::dsp
