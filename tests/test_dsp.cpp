// Tests for the DSP kernels: FFT against the O(N^2) DFT oracle, window
// functions, fftshift, spectral-peak interpolation, the plan-based batched
// FFT (property tests + bit-identity against fft_inplace, in the row
// layout and in the lane layout under every host lane variant), and the CFAR
// detectors — including exact equivalence of the prefix-sum detectors
// against the reference implementations across edge configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>

#include "dsp/cfar.h"
#include "dsp/fft.h"
#include "dsp/plan.h"
#include "dsp/window.h"
#include "util/isa.h"
#include "util/rng.h"

namespace {

using fuse::dsp::cfloat;

std::vector<cfloat> random_signal(std::size_t n, std::uint64_t seed) {
  fuse::util::Rng rng(seed);
  std::vector<cfloat> v(n);
  for (auto& x : v)
    x = {rng.uniformf(-1.0f, 1.0f), rng.uniformf(-1.0f, 1.0f)};
  return v;
}

void split(const std::vector<cfloat>& v, std::vector<float>& re,
           std::vector<float>& im) {
  re.resize(v.size());
  im.resize(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    re[i] = v[i].real();
    im[i] = v[i].imag();
  }
}

// ------------------------------------------------------------------- FFT --

TEST(Fft, NextPow2) {
  EXPECT_EQ(fuse::dsp::next_pow2(1), 1u);
  EXPECT_EQ(fuse::dsp::next_pow2(2), 2u);
  EXPECT_EQ(fuse::dsp::next_pow2(3), 4u);
  EXPECT_EQ(fuse::dsp::next_pow2(64), 64u);
  EXPECT_EQ(fuse::dsp::next_pow2(65), 128u);
}

TEST(Fft, IsPow2) {
  EXPECT_TRUE(fuse::dsp::is_pow2(1));
  EXPECT_TRUE(fuse::dsp::is_pow2(256));
  EXPECT_FALSE(fuse::dsp::is_pow2(0));
  EXPECT_FALSE(fuse::dsp::is_pow2(48));
}

TEST(Fft, NonPow2Throws) {
  std::vector<cfloat> v(6);
  EXPECT_THROW(fuse::dsp::fft_inplace(v), std::invalid_argument);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<cfloat> v(16);
  v[0] = {1.0f, 0.0f};
  fuse::dsp::fft_inplace(v);
  for (const auto& x : v) {
    EXPECT_NEAR(x.real(), 1.0f, 1e-5f);
    EXPECT_NEAR(x.imag(), 0.0f, 1e-5f);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t k0 = 5;
  std::vector<cfloat> v(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double ang = 2.0 * M_PI * static_cast<double>(k0 * t) / n;
    v[t] = {static_cast<float>(std::cos(ang)),
            static_cast<float>(std::sin(ang))};
  }
  fuse::dsp::fft_inplace(v);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == k0) {
      EXPECT_NEAR(std::abs(v[k]), static_cast<float>(n), 1e-3f);
    } else {
      EXPECT_NEAR(std::abs(v[k]), 0.0f, 1e-3f);
    }
  }
}

class FftVsDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftVsDft, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  fuse::util::Rng rng(n);
  std::vector<cfloat> v(n);
  for (auto& x : v)
    x = {rng.uniformf(-1.0f, 1.0f), rng.uniformf(-1.0f, 1.0f)};
  const auto ref = fuse::dsp::dft_reference(v);
  auto got = v;
  fuse::dsp::fft_inplace(got);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(got[k].real(), ref[k].real(), 1e-3f * static_cast<float>(n));
    EXPECT_NEAR(got[k].imag(), ref[k].imag(), 1e-3f * static_cast<float>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftVsDft,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256));

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversSignal) {
  const std::size_t n = GetParam();
  fuse::util::Rng rng(3 * n + 1);
  std::vector<cfloat> v(n);
  for (auto& x : v)
    x = {rng.uniformf(-1.0f, 1.0f), rng.uniformf(-1.0f, 1.0f)};
  auto w = v;
  fuse::dsp::fft_inplace(w, false);
  fuse::dsp::fft_inplace(w, true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(w[i].real(), v[i].real(), 1e-4f);
    EXPECT_NEAR(w[i].imag(), v[i].imag(), 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2, 8, 64, 512));

TEST(Fft, ParsevalEnergyConservation) {
  const std::size_t n = 128;
  fuse::util::Rng rng(99);
  std::vector<cfloat> v(n);
  double time_energy = 0.0;
  for (auto& x : v) {
    x = {rng.uniformf(-1.0f, 1.0f), rng.uniformf(-1.0f, 1.0f)};
    time_energy += std::norm(x);
  }
  fuse::dsp::fft_inplace(v);
  double freq_energy = 0.0;
  for (const auto& x : v) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-3 * time_energy);
}

TEST(Fft, ZeroPaddingInFreeFunction) {
  std::vector<cfloat> v(48, cfloat{1.0f, 0.0f});
  const auto out = fuse::dsp::fft(v);
  EXPECT_EQ(out.size(), 64u);
}

TEST(Fft, FftshiftEven) {
  std::vector<int> v = {0, 1, 2, 3};
  fuse::dsp::fftshift(v);
  EXPECT_EQ(v, (std::vector<int>{2, 3, 0, 1}));
}

TEST(Fft, FftshiftOdd) {
  std::vector<int> v = {0, 1, 2, 3, 4};
  fuse::dsp::fftshift(v);
  EXPECT_EQ(v, (std::vector<int>{3, 4, 0, 1, 2}));
}

TEST(Fft, ParabolicPeakOffsetExactForParabola) {
  // Samples of y = 1 - (x - 0.3)^2 at x = -1, 0, 1.
  const float d = 0.3f;
  const auto y = [d](float x) { return 1.0f - (x - d) * (x - d); };
  EXPECT_NEAR(fuse::dsp::parabolic_peak_offset(y(-1), y(0), y(1)), d, 1e-5f);
}

TEST(Fft, ParabolicPeakOffsetClamped) {
  EXPECT_LE(std::fabs(fuse::dsp::parabolic_peak_offset(0.0f, 0.0f, 0.0f)),
            0.5f);
  EXPECT_LE(std::fabs(fuse::dsp::parabolic_peak_offset(1.0f, 1.0f, 1.01f)),
            0.5f);
}

// --------------------------------------------------------------- FftPlan --

// All power-of-two sizes a RadarConfig can reach on this codebase's
// configurations (range 256, Doppler 64, angle 64) plus the degenerate
// small sizes.
class FftPlanSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftPlanSweep, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  const auto v = random_signal(n, 7 * n + 1);
  const auto ref = fuse::dsp::dft_reference(v);
  std::vector<float> re, im;
  split(v, re, im);
  fuse::dsp::FftPlan plan(n);
  plan.execute(re.data(), im.data());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(re[k], ref[k].real(), 1e-3f * static_cast<float>(n));
    EXPECT_NEAR(im[k], ref[k].imag(), 1e-3f * static_cast<float>(n));
  }
}

TEST_P(FftPlanSweep, BitIdenticalToFftInplace) {
  const std::size_t n = GetParam();
  const auto v = random_signal(n, 13 * n + 5);
  for (const bool inverse : {false, true}) {
    auto oracle = v;
    fuse::dsp::fft_inplace(oracle, inverse);
    std::vector<float> re, im;
    split(v, re, im);
    fuse::dsp::FftPlan plan(n);
    plan.execute(re.data(), im.data(), inverse);
    for (std::size_t k = 0; k < n; ++k) {
      // Exact float equality: the plan must reproduce the legacy rounding
      // bit for bit (shared twiddle recurrence + identical butterflies).
      EXPECT_EQ(re[k], oracle[k].real()) << "n=" << n << " k=" << k;
      EXPECT_EQ(im[k], oracle[k].imag()) << "n=" << n << " k=" << k;
    }
  }
}

TEST_P(FftPlanSweep, RoundTripForwardInverse) {
  const std::size_t n = GetParam();
  const auto v = random_signal(n, 3 * n + 11);
  std::vector<float> re, im;
  split(v, re, im);
  fuse::dsp::FftPlan plan(n);
  plan.execute(re.data(), im.data(), false);
  plan.execute(re.data(), im.data(), true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(re[i], v[i].real(), 1e-4f);
    EXPECT_NEAR(im[i], v[i].imag(), 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftPlanSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256,
                                           512));

TEST(FftPlan, NonPow2Throws) {
  EXPECT_THROW(fuse::dsp::FftPlan(6), std::invalid_argument);
  EXPECT_THROW(fuse::dsp::FftPlan(0), std::invalid_argument);
}

TEST(FftPlan, ImpulseGivesFlatSpectrum) {
  const std::size_t n = 64;
  std::vector<float> re(n, 0.0f), im(n, 0.0f);
  re[0] = 1.0f;
  fuse::dsp::FftPlan plan(n);
  plan.execute(re.data(), im.data());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(re[k], 1.0f, 1e-5f);
    EXPECT_NEAR(im[k], 0.0f, 1e-5f);
  }
}

TEST(FftPlan, Linearity) {
  const std::size_t n = 128;
  const auto a = random_signal(n, 21);
  const auto b = random_signal(n, 22);
  std::vector<cfloat> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = a[i] + 2.0f * b[i];
  fuse::dsp::FftPlan plan(n);
  std::vector<float> are, aim, bre, bim, sre, sim;
  split(a, are, aim);
  split(b, bre, bim);
  split(sum, sre, sim);
  plan.execute(are.data(), aim.data());
  plan.execute(bre.data(), bim.data());
  plan.execute(sre.data(), sim.data());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(sre[k], are[k] + 2.0f * bre[k], 2e-4f * n);
    EXPECT_NEAR(sim[k], aim[k] + 2.0f * bim[k], 2e-4f * n);
  }
}

TEST(FftPlan, ParsevalEnergyConservation) {
  const std::size_t n = 256;
  const auto v = random_signal(n, 77);
  double time_energy = 0.0;
  for (const auto& x : v) time_energy += std::norm(x);
  std::vector<float> re, im;
  split(v, re, im);
  fuse::dsp::FftPlan plan(n);
  plan.execute(re.data(), im.data());
  double freq_energy = 0.0;
  for (std::size_t k = 0; k < n; ++k)
    freq_energy += static_cast<double>(re[k]) * re[k] +
                   static_cast<double>(im[k]) * im[k];
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-3 * time_energy);
}

TEST(FftPlan, ExecuteManyEqualsPerRow) {
  const std::size_t n = 32, rows = 5;
  fuse::dsp::FftPlan plan(n);
  std::vector<float> re(rows * n), im(rows * n);
  std::vector<std::vector<float>> ref_re(rows), ref_im(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto v = random_signal(n, 1000 + r);
    split(v, ref_re[r], ref_im[r]);
    std::copy(ref_re[r].begin(), ref_re[r].end(), re.begin() + r * n);
    std::copy(ref_im[r].begin(), ref_im[r].end(), im.begin() + r * n);
    plan.execute(ref_re[r].data(), ref_im[r].data());
  }
  plan.execute_many(re.data(), im.data(), rows);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(re[r * n + k], ref_re[r][k]);
      EXPECT_EQ(im[r * n + k], ref_im[r][k]);
    }
}

// ------------------------------------------------------ FftPlan lanes --
// Every test below runs once per lane variant the host can run, so each
// compiled ISA is checked against the same oracles on this machine.

using fuse::dsp::LaneVariant;

/// Lane-layout buffers for `lanes` rows of an n-point transform.
struct LaneBuf {
  LaneBuf(std::size_t n, std::size_t lanes)
      : lanes(lanes), re(n * lanes), im(n * lanes) {}
  float r(std::size_t k, std::size_t l) const { return re[k * lanes + l]; }
  float i(std::size_t k, std::size_t l) const { return im[k * lanes + l]; }
  std::size_t lanes;
  std::vector<float> re, im;
};

TEST(FftPlanLanes, LoadLanesFusesWindowPadAndPermutation) {
  // load_lanes + execute_lanes must equal windowing, zero-padding and
  // fft_inplace done by hand per row — bit for bit — for a full lane group
  // and for one with an empty lane, which must come out zero even when the
  // buffer held stale values.
  const std::size_t count = 48, n = 64;
  const auto w = fuse::dsp::make_window(fuse::dsp::WindowType::kHann, count);
  fuse::dsp::FftPlan plan(n);
  for (const LaneVariant* v : fuse::dsp::host_lane_variants()) {
    for (const std::size_t rows : {v->lanes, v->lanes - 1}) {
      const auto src = random_signal(rows * count, 99);
      LaneBuf buf(n, v->lanes);
      std::fill(buf.re.begin(), buf.re.end(), 7.0f);
      std::fill(buf.im.begin(), buf.im.end(), -7.0f);
      plan.load_lanes(*v, src.data(), count, rows, count, w.data(),
                      buf.re.data(), buf.im.data());
      plan.execute_lanes(*v, buf.re.data(), buf.im.data());
      for (std::size_t l = 0; l < rows; ++l) {
        std::vector<cfloat> oracle(src.begin() + l * count,
                                   src.begin() + (l + 1) * count);
        for (std::size_t s = 0; s < count; ++s) oracle[s] *= w[s];
        oracle.resize(n);
        fuse::dsp::fft_inplace(oracle);
        for (std::size_t k = 0; k < n; ++k) {
          EXPECT_EQ(buf.r(k, l), oracle[k].real()) << v->name << " l=" << l;
          EXPECT_EQ(buf.i(k, l), oracle[k].imag()) << v->name << " l=" << l;
        }
      }
      for (std::size_t l = rows; l < v->lanes; ++l)
        for (std::size_t k = 0; k < n; ++k) {
          EXPECT_EQ(buf.r(k, l), 0.0f) << v->name;
          EXPECT_EQ(buf.i(k, l), 0.0f) << v->name;
        }
    }
  }
}

TEST(FftPlanLanes, LaneExecuteEqualsRowExecuteAtEverySize) {
  // One lane of a lane butterfly is the row butterfly: exact equality,
  // forward and inverse, at every power-of-two size from 2 to 1024.
  for (const LaneVariant* v : fuse::dsp::host_lane_variants()) {
    for (std::size_t n = 2; n <= 1024; n <<= 1) {
      fuse::dsp::FftPlan plan(n);
      const auto src = random_signal(v->lanes * n, 31 * n + v->lanes);
      for (const bool inverse : {false, true}) {
        LaneBuf buf(n, v->lanes);
        plan.load_lanes(*v, src.data(), n, v->lanes, n, nullptr,
                        buf.re.data(), buf.im.data());
        plan.execute_lanes(*v, buf.re.data(), buf.im.data(), inverse);
        std::size_t mismatches = 0;
        for (std::size_t l = 0; l < v->lanes; ++l) {
          const std::vector<cfloat> row(src.begin() + l * n,
                                        src.begin() + (l + 1) * n);
          std::vector<float> re, im;
          split(row, re, im);
          plan.execute(re.data(), im.data(), inverse);
          for (std::size_t k = 0; k < n; ++k)
            if (buf.r(k, l) != re[k] || buf.i(k, l) != im[k]) ++mismatches;
        }
        EXPECT_EQ(mismatches, 0u)
            << v->name << " n=" << n << " inverse=" << inverse;
      }
    }
  }
}

TEST(FftPlanLanes, LoadLaneColumnsRemovesMeanAndWindows) {
  // Column loads (sample s of every lane contiguous, rows `stride` apart)
  // with mean removal and a window, against the reference arithmetic: a
  // complex mean accumulated from zero and scaled by 1/count, then
  // (x - mean) * w[s], zero padding and fft_inplace.
  const std::size_t count = 20, n = 32;
  const auto w =
      fuse::dsp::make_window(fuse::dsp::WindowType::kHamming, count);
  fuse::dsp::FftPlan plan(n);
  for (const LaneVariant* v : fuse::dsp::host_lane_variants()) {
    const std::size_t stride = v->lanes + 3;  // columns need not be packed
    const auto cols = random_signal(count * stride, 123 + v->lanes);
    std::vector<float> src_re, src_im;
    split(cols, src_re, src_im);
    for (const bool remove_mean : {false, true}) {
      LaneBuf buf(n, v->lanes);
      plan.load_lane_columns(*v, src_re.data(), src_im.data(), stride, count,
                             w.data(), remove_mean, buf.re.data(),
                             buf.im.data());
      plan.execute_lanes(*v, buf.re.data(), buf.im.data());
      for (std::size_t l = 0; l < v->lanes; ++l) {
        cfloat mean{};
        if (remove_mean) {
          for (std::size_t s = 0; s < count; ++s) mean += cols[s * stride + l];
          mean *= 1.0f / static_cast<float>(count);
        }
        std::vector<cfloat> oracle(n);
        for (std::size_t s = 0; s < count; ++s)
          oracle[s] = (cols[s * stride + l] - mean) * w[s];
        fuse::dsp::fft_inplace(oracle);
        for (std::size_t k = 0; k < n; ++k) {
          EXPECT_EQ(buf.r(k, l), oracle[k].real())
              << v->name << " mean=" << remove_mean << " l=" << l;
          EXPECT_EQ(buf.i(k, l), oracle[k].imag())
              << v->name << " mean=" << remove_mean << " l=" << l;
        }
      }
    }
  }
}

TEST(FftPlanLanes, StoresDeinterleaveAtEverySize) {
  // store_lanes writes lane l to row l in natural order; store_lanes_shifted
  // writes it fftshifted into complex rows.  Full and partial lane groups,
  // every size from 1 to 1024 (below, at and above the lane width), rows
  // padded apart so a store past a row's end would show.
  for (const LaneVariant* v : fuse::dsp::host_lane_variants()) {
    for (std::size_t n = 1; n <= 1024; n <<= 1) {
      fuse::dsp::FftPlan plan(n);
      LaneBuf buf(n, v->lanes);
      for (std::size_t i = 0; i < buf.re.size(); ++i) {
        buf.re[i] = static_cast<float>(i) + 0.25f;
        buf.im[i] = -static_cast<float>(i);
      }
      for (const std::size_t rows : {v->lanes, v->lanes - 1}) {
        const std::size_t stride = n + 3;
        const float kPad = 1234.5f;
        std::vector<float> re(v->lanes * stride, kPad), im(re);
        std::vector<cfloat> cx(v->lanes * stride, cfloat(kPad, kPad));
        plan.store_lanes(*v, buf.re.data(), buf.im.data(), rows, re.data(),
                         im.data(), stride);
        plan.store_lanes_shifted(*v, buf.re.data(), buf.im.data(), rows,
                                 cx.data(), stride);
        std::size_t mismatches = 0;
        for (std::size_t l = 0; l < v->lanes; ++l) {
          std::vector<cfloat> lane(n);
          for (std::size_t k = 0; k < n; ++k)
            lane[k] = cfloat(buf.r(k, l), buf.i(k, l));
          fuse::dsp::fftshift(lane);
          for (std::size_t k = 0; k < stride; ++k) {
            const bool stored = l < rows && k < n;
            const float want_re = stored ? buf.r(k, l) : kPad;
            const float want_im = stored ? buf.i(k, l) : kPad;
            const cfloat want_cx = stored ? lane[k] : cfloat(kPad, kPad);
            if (re[l * stride + k] != want_re ||
                im[l * stride + k] != want_im ||
                cx[l * stride + k] != want_cx)
              ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0u)
            << v->name << " n=" << n << " rows=" << rows;
      }
    }
  }
}

TEST(FftPlanLanes, VariantsAreListedNarrowestFirst) {
  const auto variants = fuse::dsp::host_lane_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front()->lanes, 4u);  // the portable fallback
  for (std::size_t i = 1; i < variants.size(); ++i)
    EXPECT_GT(variants[i]->lanes, variants[i - 1]->lanes);
  EXPECT_EQ(&fuse::dsp::dispatched_lane_variant(), variants.back());
  // One variant per host ISA level, from the shared dispatcher.
  const auto isas = fuse::util::host_isas();
  ASSERT_EQ(variants.size(), isas.size());
  for (std::size_t i = 0; i < isas.size(); ++i)
    EXPECT_STREQ(variants[i]->name, fuse::util::isa_name(isas[i]));
}

TEST(FftPlanLanes, LoadAndStoreBoundsThrow) {
  fuse::dsp::FftPlan plan(8);
  for (const LaneVariant* v : fuse::dsp::host_lane_variants()) {
    const auto src = random_signal(9 * (v->lanes + 1), 5);
    LaneBuf buf(8, v->lanes);
    EXPECT_THROW(plan.load_lanes(*v, src.data(), 9, 1, 9, nullptr,
                                 buf.re.data(), buf.im.data()),
                 std::invalid_argument);
    // More rows than the variant has lanes, on load and on store.
    EXPECT_THROW(plan.load_lanes(*v, src.data(), 8, v->lanes + 1, 8, nullptr,
                                 buf.re.data(), buf.im.data()),
                 std::invalid_argument);
    std::vector<cfloat> rows_out(8 * (v->lanes + 1));
    std::vector<float> flat_out(8 * (v->lanes + 1));
    EXPECT_THROW(plan.store_lanes(*v, buf.re.data(), buf.im.data(),
                                  v->lanes + 1, flat_out.data(),
                                  flat_out.data(), 8),
                 std::invalid_argument);
    EXPECT_THROW(plan.store_lanes_shifted(*v, buf.re.data(), buf.im.data(),
                                          v->lanes + 1, rows_out.data(), 8),
                 std::invalid_argument);
    std::vector<float> cols(9 * v->lanes);
    EXPECT_THROW(plan.load_lane_columns(*v, cols.data(), cols.data(),
                                        v->lanes, 9, nullptr, false,
                                        buf.re.data(), buf.im.data()),
                 std::invalid_argument);
  }
}
TEST(Fft, PreallocatedOutMatchesReturningOverload) {
  const auto v = random_signal(48, 31);
  const auto ref = fuse::dsp::fft(v);
  std::vector<cfloat> out;
  fuse::dsp::fft(v, out);
  ASSERT_EQ(out.size(), ref.size());
  for (std::size_t k = 0; k < out.size(); ++k) EXPECT_EQ(out[k], ref[k]);

  // Steady-shape reuse: the second call must not reallocate.
  const cfloat* data_before = out.data();
  fuse::dsp::fft(v, out, true);
  EXPECT_EQ(out.data(), data_before);
  EXPECT_EQ(out.size(), 64u);
}

// --------------------------------------------------------------- windows --

class WindowSweep : public ::testing::TestWithParam<fuse::dsp::WindowType> {};

TEST_P(WindowSweep, SymmetricAndBounded) {
  const auto w = fuse::dsp::make_window(GetParam(), 65);
  ASSERT_EQ(w.size(), 65u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -1e-6f);
    EXPECT_LE(w[i], 1.0f + 1e-6f);
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-5f) << "asymmetric at " << i;
  }
}

TEST_P(WindowSweep, CoherentGainPositive) {
  const auto w = fuse::dsp::make_window(GetParam(), 64);
  const float g = fuse::dsp::coherent_gain(w);
  EXPECT_GT(g, 0.0f);
  EXPECT_LE(g, 1.0f + 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, WindowSweep,
                         ::testing::Values(fuse::dsp::WindowType::kRect,
                                           fuse::dsp::WindowType::kHann,
                                           fuse::dsp::WindowType::kHamming,
                                           fuse::dsp::WindowType::kBlackman));

TEST(Window, HannEndpointsAreZero) {
  const auto w = fuse::dsp::make_window(fuse::dsp::WindowType::kHann, 32);
  EXPECT_NEAR(w.front(), 0.0f, 1e-6f);
  EXPECT_NEAR(w.back(), 0.0f, 1e-6f);
}

TEST(Window, RectIsAllOnes) {
  const auto w = fuse::dsp::make_window(fuse::dsp::WindowType::kRect, 16);
  for (const float v : w) EXPECT_EQ(v, 1.0f);
}

TEST(Window, ApplyWindowMismatchThrows) {
  std::vector<float> data(8, 1.0f);
  const auto w = fuse::dsp::make_window(fuse::dsp::WindowType::kHann, 16);
  EXPECT_THROW(fuse::dsp::apply_window(data, w), std::invalid_argument);
}

// ------------------------------------------------------------------ CFAR --

TEST(Cfar, ScaleForPfaSanity) {
  // More training cells -> smaller multiplier for the same Pfa; smaller Pfa
  // -> larger multiplier.
  const float s16 = fuse::dsp::cfar_scale_for_pfa(16, 1e-4);
  const float s32 = fuse::dsp::cfar_scale_for_pfa(32, 1e-4);
  const float s16_tight = fuse::dsp::cfar_scale_for_pfa(16, 1e-6);
  EXPECT_GT(s16, s32);
  EXPECT_GT(s16_tight, s16);
  EXPECT_THROW(fuse::dsp::cfar_scale_for_pfa(0, 1e-4), std::invalid_argument);
  EXPECT_THROW(fuse::dsp::cfar_scale_for_pfa(8, 1.5), std::invalid_argument);
}

std::vector<float> noise_profile(std::size_t n, fuse::util::Rng& rng,
                                 float level = 1.0f) {
  // Exponentially distributed power (square-law detected Gaussian noise).
  std::vector<float> p(n);
  for (auto& v : p)
    v = -level * std::log(std::max(1e-12, 1.0 - rng.uniform()));
  return p;
}

TEST(Cfar, DetectsStrongTargetInNoise) {
  fuse::util::Rng rng(7);
  auto p = noise_profile(256, rng);
  p[100] = 200.0f;
  fuse::dsp::CfarConfig cfg;
  cfg.threshold_scale = fuse::dsp::cfar_scale_for_pfa(16, 1e-4);
  const auto dets = fuse::dsp::ca_cfar_1d(p, cfg);
  ASSERT_FALSE(dets.empty());
  bool found = false;
  for (const auto& d : dets) found |= d.index == 100;
  EXPECT_TRUE(found);
}

TEST(Cfar, FalseAlarmRateIsControlled) {
  // Pure noise: the empirical false-alarm rate should be near the design
  // Pfa (local-max gating only reduces it).
  fuse::util::Rng rng(11);
  fuse::dsp::CfarConfig cfg;
  cfg.threshold_scale = fuse::dsp::cfar_scale_for_pfa(16, 1e-2);
  std::size_t alarms = 0, cells = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto p = noise_profile(512, rng);
    alarms += fuse::dsp::ca_cfar_1d(p, cfg).size();
    cells += p.size();
  }
  const double rate = static_cast<double>(alarms) / static_cast<double>(cells);
  EXPECT_LT(rate, 3e-2);  // not wildly above design
  EXPECT_GT(rate, 1e-4);  // not degenerate either
}

TEST(Cfar, WeakTargetBelowThresholdIgnored) {
  fuse::util::Rng rng(13);
  auto p = noise_profile(256, rng);
  p[60] = 1.5f;  // barely above mean noise
  fuse::dsp::CfarConfig cfg;
  cfg.threshold_scale = fuse::dsp::cfar_scale_for_pfa(16, 1e-6);
  for (const auto& d : fuse::dsp::ca_cfar_1d(p, cfg))
    EXPECT_NE(d.index, 60u);
}

TEST(Cfar, SnrAndThresholdReported) {
  std::vector<float> p(64, 1.0f);
  p[32] = 100.0f;
  fuse::dsp::CfarConfig cfg;
  cfg.threshold_scale = 8.0f;
  const auto dets = fuse::dsp::ca_cfar_1d(p, cfg);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].index, 32u);
  EXPECT_NEAR(dets[0].snr, 100.0f, 1.0f);
  EXPECT_NEAR(dets[0].threshold, 8.0f, 0.5f);
}

TEST(Cfar, OsCfarHandlesInterferingTarget) {
  // Two closely spaced strong targets: CA-CFAR's mean is dragged up by the
  // neighbour inside the training window; OS-CFAR's order statistic is not.
  std::vector<float> p(128, 1.0f);
  p[60] = 400.0f;
  p[66] = 380.0f;  // inside the other's training window
  fuse::dsp::CfarConfig cfg;
  cfg.guard_cells = 2;
  cfg.train_cells = 8;
  cfg.threshold_scale = 6.0f;
  cfg.os_rank_fraction = 0.70f;
  const auto os = fuse::dsp::os_cfar_1d(p, cfg);
  bool os_60 = false, os_66 = false;
  for (const auto& d : os) {
    os_60 |= d.index == 60;
    os_66 |= d.index == 66;
  }
  EXPECT_TRUE(os_60);
  EXPECT_TRUE(os_66);
}

TEST(Cfar, TwoDimensionalDetectsTargetAndPosition) {
  const std::size_t nr = 64, nd = 32;
  fuse::util::Rng rng(17);
  std::vector<float> map(nr * nd);
  for (auto& v : map)
    v = -std::log(std::max(1e-12, 1.0 - rng.uniform()));
  map[20 * nd + 10] = 500.0f;
  map[45 * nd + 3] = 300.0f;
  fuse::dsp::CfarConfig cfg;
  cfg.threshold_scale = fuse::dsp::cfar_scale_for_pfa(16, 1e-3);
  const auto dets = fuse::dsp::ca_cfar_2d(map, nr, nd, cfg);
  bool t1 = false, t2 = false;
  for (const auto& d : dets) {
    t1 |= d.row == 20 && d.col == 10;
    t2 |= d.row == 45 && d.col == 3;
  }
  EXPECT_TRUE(t1);
  EXPECT_TRUE(t2);
}

TEST(Cfar, TwoDimensionalMapSizeMismatchThrows) {
  std::vector<float> map(10);
  fuse::dsp::CfarConfig cfg;
  EXPECT_THROW(fuse::dsp::ca_cfar_2d(map, 4, 4, cfg), std::invalid_argument);
}

TEST(Cfar, TwoDimensionalEmitsSinglePeakPerTarget) {
  // A target smeared over a 2-cell plateau must yield exactly one detection
  // (the local-max tie-breaking rule).
  const std::size_t nr = 32, nd = 16;
  std::vector<float> map(nr * nd, 1.0f);
  map[10 * nd + 8] = 200.0f;
  map[10 * nd + 9] = 200.0f;
  fuse::dsp::CfarConfig cfg;
  cfg.threshold_scale = 10.0f;
  const auto dets = fuse::dsp::ca_cfar_2d(map, nr, nd, cfg);
  EXPECT_EQ(dets.size(), 1u);
}

// ------------------------------------- prefix-sum CFAR vs reference -------

void expect_same_detections(const std::vector<fuse::dsp::Detection1d>& ref,
                            const std::vector<fuse::dsp::Detection1d>& got,
                            const char* what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].index, ref[i].index) << what << " det " << i;
    EXPECT_EQ(got[i].power, ref[i].power) << what << " det " << i;
    EXPECT_FLOAT_EQ(got[i].threshold, ref[i].threshold) << what << " det "
                                                        << i;
    EXPECT_FLOAT_EQ(got[i].snr, ref[i].snr) << what << " det " << i;
  }
}

void expect_same_detections(const std::vector<fuse::dsp::Detection2d>& ref,
                            const std::vector<fuse::dsp::Detection2d>& got,
                            const char* what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].row, ref[i].row) << what << " det " << i;
    EXPECT_EQ(got[i].col, ref[i].col) << what << " det " << i;
    EXPECT_EQ(got[i].power, ref[i].power) << what << " det " << i;
    EXPECT_FLOAT_EQ(got[i].snr, ref[i].snr) << what << " det " << i;
  }
}

TEST(CfarEquivalence, OneDimensionalAcrossEdgeConfigs) {
  fuse::util::Rng rng(29);
  // Guard/train sweeps include: zero training cells (never detects),
  // windows clipped at both edges, and windows larger than the array.
  const struct {
    std::size_t n, guard, train;
  } cases[] = {{256, 2, 8},  {256, 0, 1},  {64, 4, 16}, {64, 0, 64},
               {5, 1, 2},    {5, 2, 8},    {1, 2, 8},   {2, 0, 1},
               {33, 16, 16}, {256, 2, 0}};
  for (const auto& c : cases) {
    auto p = noise_profile(c.n, rng);
    if (c.n > 4) {
      p[c.n / 2] = 500.0f;  // strong target
      p[1] = 300.0f;        // edge target with clipped leading window
      p[c.n - 1] = 250.0f;  // edge target with clipped lagging window
    }
    fuse::dsp::CfarConfig cfg;
    cfg.guard_cells = c.guard;
    cfg.train_cells = c.train;
    cfg.threshold_scale = 4.0f;
    const auto ref = fuse::dsp::ca_cfar_1d_reference(p, cfg);
    const auto got = fuse::dsp::ca_cfar_1d(p, cfg);
    expect_same_detections(ref, got, "1d");
  }
}

TEST(CfarEquivalence, OneDimensionalDegenerateInputs) {
  fuse::dsp::CfarConfig cfg;
  // All-zero profile: noise estimate 0 everywhere -> no detections.
  std::vector<float> zeros(64, 0.0f);
  EXPECT_TRUE(fuse::dsp::ca_cfar_1d(zeros, cfg).empty());
  expect_same_detections(fuse::dsp::ca_cfar_1d_reference(zeros, cfg),
                         fuse::dsp::ca_cfar_1d(zeros, cfg), "zeros");
  // Single-cell input: no training cells exist at all.
  std::vector<float> one = {42.0f};
  EXPECT_TRUE(fuse::dsp::ca_cfar_1d(one, cfg).empty());
  // Empty input.
  EXPECT_TRUE(fuse::dsp::ca_cfar_1d(std::vector<float>{}, cfg).empty());
}

TEST(CfarEquivalence, TwoDimensionalAcrossModesAndShapes) {
  fuse::util::Rng rng(31);
  const struct {
    std::size_t nr, nd, guard, train;
  } shapes[] = {{64, 32, 2, 8}, {16, 4, 2, 8},  {8, 2, 1, 4},
                {1, 8, 2, 8},   {5, 1, 2, 8},   {32, 16, 0, 1},
                {4, 4, 3, 9},   {64, 32, 2, 0}};
  for (const auto& sh : shapes) {
    std::vector<float> map(sh.nr * sh.nd);
    for (auto& v : map)
      v = -std::log(std::max(1e-12, 1.0 - rng.uniform()));
    if (sh.nr > 2 && sh.nd > 2) {
      map[(sh.nr / 3) * sh.nd + sh.nd / 2] = 400.0f;
      map[(sh.nr - 1) * sh.nd + 0] = 300.0f;  // corner (clipped range axis)
    }
    for (const auto mode :
         {fuse::dsp::Cfar2dMode::kDopplerAxis, fuse::dsp::Cfar2dMode::kCross})
      for (const auto lm :
           {fuse::dsp::CfarLocalMax::kNone, fuse::dsp::CfarLocalMax::kDoppler,
            fuse::dsp::CfarLocalMax::kFull}) {
        fuse::dsp::CfarConfig cfg;
        cfg.guard_cells = sh.guard;
        cfg.train_cells = sh.train;
        cfg.threshold_scale = 4.0f;
        cfg.mode_2d = mode;
        cfg.local_max_2d = lm;
        const auto ref =
            fuse::dsp::ca_cfar_2d_reference(map, sh.nr, sh.nd, cfg);
        const auto got = fuse::dsp::ca_cfar_2d(map, sh.nr, sh.nd, cfg);
        expect_same_detections(ref, got, "2d");
      }
  }
}

TEST(CfarEquivalence, TwoDimensionalDopplerWindowWrapsFullCircle) {
  // guard + train far beyond n_doppler: the circular window laps the ring
  // and revisits cells — the prefix path must count laps exactly like the
  // reference's repeated adds.
  fuse::util::Rng rng(37);
  const std::size_t nr = 8, nd = 4;
  std::vector<float> map(nr * nd);
  for (auto& v : map) v = -std::log(std::max(1e-12, 1.0 - rng.uniform()));
  map[3 * nd + 1] = 200.0f;
  fuse::dsp::CfarConfig cfg;
  cfg.guard_cells = 2;
  cfg.train_cells = 11;  // window spans 2 * 11 cells on a 4-cell ring
  cfg.threshold_scale = 3.0f;
  cfg.mode_2d = fuse::dsp::Cfar2dMode::kDopplerAxis;
  cfg.local_max_2d = fuse::dsp::CfarLocalMax::kNone;
  expect_same_detections(fuse::dsp::ca_cfar_2d_reference(map, nr, nd, cfg),
                         fuse::dsp::ca_cfar_2d(map, nr, nd, cfg), "wrap");
}

TEST(CfarEquivalence, TwoDimensionalAllZeroMap) {
  std::vector<float> map(32 * 16, 0.0f);
  fuse::dsp::CfarConfig cfg;
  EXPECT_TRUE(fuse::dsp::ca_cfar_2d(map, 32, 16, cfg).empty());
  EXPECT_TRUE(fuse::dsp::ca_cfar_2d_reference(map, 32, 16, cfg).empty());
}

TEST(CfarEquivalence, ScratchReuseIsAllocationFree) {
  fuse::util::Rng rng(41);
  std::vector<float> map(64 * 32);
  for (auto& v : map) v = -std::log(std::max(1e-12, 1.0 - rng.uniform()));
  fuse::dsp::CfarConfig cfg;
  fuse::dsp::CfarScratch scratch;
  std::vector<fuse::dsp::Detection2d> dets;
  fuse::dsp::ca_cfar_2d(map, 64, 32, cfg, scratch, dets);
  const std::size_t grows = scratch.grow_events;
  for (int i = 0; i < 5; ++i)
    fuse::dsp::ca_cfar_2d(map, 64, 32, cfg, scratch, dets);
  EXPECT_EQ(scratch.grow_events, grows);
}

}  // namespace
