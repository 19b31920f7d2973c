#pragma once
// Plan-based batched FFT for the radar frame pipeline.
//
// fft_inplace() (fft.h) recomputes its stage twiddles with sin/cos on every
// call and carries a loop-borne `w *= wlen` recurrence that serializes the
// butterfly inner loop.  An FftPlan front-loads all of that work once per
// transform size: the bit-reversal permutation and every stage's twiddle
// factors are precomputed at construction.
//
// Two layouts share those tables:
//
//   * Row layout (execute / execute_many): one split-complex (SoA) row per
//     transform.  Its first stages (half = 1, 2, 4) are too short to fill
//     a vector, so this is the scalar path; the angle FFT (one 64-point
//     transform per detection) uses it.
//   * Lane layout (load_lanes / load_lane_columns, execute_lanes,
//     store_lanes / store_lanes_shifted): L same-size transforms
//     interleaved lane-wise, element k of lane l at buf[k * L + l].  Every
//     butterfly of every stage then works on one vector of L lanes.  The
//     loads and stores move whole L x L blocks through an in-register
//     transpose where the data allows, and element by element elsewhere.
//     L comes from a LaneVariant: 4 lanes generic (SSE2 on x86-64, NEON
//     on AArch64), 8 under AVX2, 16 under AVX-512F, one per util::Isa
//     level; the widest one the host runs is picked once
//     (dispatched_lane_variant(), from util::dispatched_isa()).
//
// Determinism contract: the twiddle tables are generated with the exact
// float recurrence fft_inplace uses, and both butterflies perform the same
// float operations per element in the same order (one lane of a lane
// butterfly is the row butterfly; loads and stores only move data and
// apply the same elementwise window/mean arithmetic), so a planned
// transform is BIT-IDENTICAL to fft_inplace on the same input under every
// variant (tests assert this with exact float equality; the DSP TUs build
// with -ffp-contract=off, so no FMA can fuse a multiply-add in one path
// and not the other).  Forward and inverse share one table set — the
// inverse twiddles are exact conjugates of the forward ones, which the
// butterflies apply by negating the imaginary table entry.
//
// Typical frame usage (see radar::Processor::range_doppler):
//   const LaneVariant& lv = dispatched_lane_variant();
//   plan.load_lanes(lv, chirp0, ns, rows, ns, window, re, im);  // fused load
//   plan.execute_lanes(lv, re, im);                             // L FFTs
//   plan.store_lanes(lv, re, im, rows, dst_re, dst_im, ld);     // unpack

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/fft.h"

namespace fuse::dsp {

struct LaneKernels;  // per-variant kernel table (plan.cpp)

/// One compiled instantiation of the lane kernels.
struct LaneVariant {
  const char* name;     ///< "sse2"/"neon"/"generic", "avx2" or "avx512f"
  std::size_t lanes;    ///< transforms per vector: 4, 8 or 16
  const LaneKernels* kernels;
};

/// The variants compiled into this binary that the host CPU can run, one
/// per util::host_isas() level, narrowest first (the generic 4-lane
/// variant is always present).
std::span<const LaneVariant* const> host_lane_variants();

/// The widest host variant: the one of util::dispatched_isa().
const LaneVariant& dispatched_lane_variant();

class FftPlan {
 public:
  /// Builds a plan for transforms of length n (must be a power of two).
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  // ------------------------------------------------------ lane layout --
  // A lane buffer holds size() * v.lanes floats per component.  Lanes are
  // independent: a lane beyond the rows loaded holds zeros and transforms
  // to zeros, and the caller ignores it.

  /// Fused lane load from complex rows: lane l < rows reads `count`
  /// samples at src + l * row_stride, multiplies each by window[s] (null:
  /// no window), zero-pads to size() and writes sample s at its
  /// bit-reversed position, ready for execute_lanes().  Lanes in
  /// [rows, v.lanes) are zero.  Requires count <= size() and
  /// rows <= v.lanes.
  void load_lanes(const LaneVariant& v, const cfloat* src,
                  std::size_t row_stride, std::size_t rows, std::size_t count,
                  const float* window, float* re, float* im) const;

  /// Fused lane load from split-complex columns: sample s of the L lanes
  /// is the L contiguous floats at re_src + s * stride (and im_src).  With
  /// remove_mean, each lane's mean over its `count` samples is subtracted
  /// first (static-clutter / DC removal); then each sample is multiplied by
  /// window[s] (null: no window), zero-padded and bit-reversed as in
  /// load_lanes().  Requires count <= size().
  void load_lane_columns(const LaneVariant& v, const float* re_src,
                         const float* im_src, std::size_t stride,
                         std::size_t count, const float* window,
                         bool remove_mean, float* re, float* im) const;

  /// v.lanes transforms of a loaded (bit-reversed) lane buffer.
  void execute_lanes(const LaneVariant& v, float* re, float* im,
                     bool inverse = false) const;

  /// De-interleaving store: lane l < rows of a transformed lane buffer
  /// becomes the split-complex row (re_dst, im_dst) + l * row_stride, in
  /// natural order.  Requires rows <= v.lanes.
  void store_lanes(const LaneVariant& v, const float* re, const float* im,
                   std::size_t rows, float* re_dst, float* im_dst,
                   std::size_t row_stride) const;

  /// De-interleaving store into complex rows with an fftshift: lane
  /// l < rows becomes dst + l * row_stride, where
  /// dst[d] = X[(d + (size() + 1) / 2) % size()], so bin size()/2 is DC.
  /// Requires rows <= v.lanes.
  void store_lanes_shifted(const LaneVariant& v, const float* re,
                           const float* im, std::size_t rows, cfloat* dst,
                           std::size_t row_stride) const;

  // ------------------------------------------------------- row layout --

  /// Batched transform of natural-order SoA rows: permutes each row in
  /// place, then runs the butterflies.  Row r occupies
  /// re[r*size() .. (r+1)*size()).
  void execute_many(float* re, float* im, std::size_t rows,
                    bool inverse = false) const;

  /// Single natural-order SoA row.
  void execute(float* re, float* im, bool inverse = false) const {
    execute_many(re, im, 1, inverse);
  }

 private:
  void butterflies(float* re, float* im, bool inverse) const;

  std::size_t n_ = 0;
  std::vector<std::uint32_t> bitrev_;  ///< full permutation, bitrev_[i] = rev(i)
  /// Per-stage twiddle tables, stages concatenated (len = 2, 4, ..., n_;
  /// stage with half = len/2 contributes half entries; n_ - 1 total).
  std::vector<float> tw_re_;
  std::vector<float> tw_im_;
};

}  // namespace fuse::dsp
