#pragma once
// Range-Doppler-angle processing chain: turns a raw RadarCube into the
// point cloud of Eq. (1) in the paper, mirroring the TI demo firmware:
//
//   1. range FFT per chirp (Hann window)
//   2. Doppler FFT per range bin (Hamming window), fftshift
//   3. non-coherent power sum across virtual channels
//   4. 2-D CA-CFAR on the range-Doppler map
//   5. per-detection azimuth FFT over the 8-element virtual ULA
//      (after TDM Doppler compensation) and elevation monopulse
//   6. conversion to Cartesian (x, y, z) + Doppler velocity + SNR
//
// Every stage is exposed so tests can probe intermediate products.
//
// The hot path is plan-based and allocation-free: the Processor owns one
// dsp::FftPlan per transform size (range, Doppler, angle) and streams each
// frame through a caller-owned FrameWorkspace whose buffers are recycled
// across frames — after the first frame of a steady shape, no heap
// allocation happens at all (FrameWorkspace::grow_events() asserts this in
// tests).  Both FFT passes run lane-interleaved (dsp/plan.h): the range
// pass transforms L chirps per vector, the Doppler pass L range bins, with
// L = 4, 8 or 16 set by the dispatched dsp::LaneVariant.  The planned path
// is serial: a frame runs on the thread that serves it, one virtual
// channel after another, and the serving plane scales by serving more
// sessions, not by splitting one frame across cores.  The pre-plan scalar
// implementations survive as *_reference() oracles: the planned path is
// bit-identical to them under every lane variant, and the tests compare
// the two with exact float equality.

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsp/cfar.h"
#include "dsp/plan.h"
#include "radar/config.h"
#include "radar/point_cloud.h"
#include "radar/simulator.h"

namespace fuse::radar {

/// Complex range-Doppler cube after both FFTs:
/// [virtual_channel][range_bin][doppler_bin] (Doppler fftshifted so bin
/// n_doppler/2 is zero velocity).
class RangeDopplerCube {
 public:
  RangeDopplerCube() = default;
  RangeDopplerCube(std::size_t n_virtual, std::size_t n_range,
                   std::size_t n_doppler)
      : n_virtual_(n_virtual),
        n_range_(n_range),
        n_doppler_(n_doppler),
        data_(n_virtual * n_range * n_doppler) {}

  std::size_t n_virtual() const { return n_virtual_; }
  std::size_t n_range() const { return n_range_; }
  std::size_t n_doppler() const { return n_doppler_; }

  /// Re-dimensions the cube, reusing the existing storage when capacity
  /// suffices (the FrameWorkspace recycling primitive).  Element values
  /// are unspecified afterwards.  Returns true when storage actually grew.
  bool resize(std::size_t n_virtual, std::size_t n_range,
              std::size_t n_doppler) {
    n_virtual_ = n_virtual;
    n_range_ = n_range;
    n_doppler_ = n_doppler;
    const std::size_t n = n_virtual * n_range * n_doppler;
    const bool grew = data_.capacity() < n;
    data_.resize(n);
    return grew;
  }

  cfloat& at(std::size_t v, std::size_t r, std::size_t d) {
    return data_[(v * n_range_ + r) * n_doppler_ + d];
  }
  cfloat at(std::size_t v, std::size_t r, std::size_t d) const {
    return data_[(v * n_range_ + r) * n_doppler_ + d];
  }
  cfloat* data() { return data_.data(); }
  const cfloat* data() const { return data_.data(); }
  std::size_t size() const { return data_.size(); }

 private:
  std::size_t n_virtual_ = 0, n_range_ = 0, n_doppler_ = 0;
  std::vector<cfloat> data_;
};

/// One fully-resolved radar detection, before Cartesian conversion.
struct RadarDetection {
  float range_m = 0.0f;
  float velocity_mps = 0.0f;
  /// Direction cosines of the arrival direction: u_x (lateral) from the
  /// azimuth FFT, u_z (vertical) from the elevation monopulse.  The depth
  /// cosine is sqrt(1 - u_x^2 - u_z^2).
  float dir_cos_x = 0.0f;
  float dir_cos_z = 0.0f;
  float snr_db = 0.0f;
  std::size_t range_bin = 0;
  std::size_t doppler_bin = 0;

  float azimuth_rad() const { return std::asin(dir_cos_x); }
  float elevation_rad() const { return std::asin(dir_cos_z); }
};

struct ProcessedFrame {
  std::vector<float> power_map;  ///< [n_range * n_doppler] summed power
  std::size_t n_range = 0;
  std::size_t n_doppler = 0;
  std::vector<RadarDetection> detections;
  PointCloud cloud;
};

/// Reusable scratch for the planned frame path: the lane buffer and range
/// spectra of the range-Doppler pass, the output cube, CFAR prefix tables
/// and the per-detection angle scratch all live here and are recycled
/// across frames.  A workspace has one owner (pipeline, shard, bench loop) and is
/// used by one thread at a time: a frame runs on the thread that serves it.
/// Workspaces are scratch, not state — not copyable.  Contents are only
/// valid until the next Processor call that uses the workspace.
class FrameWorkspace {
 public:
  FrameWorkspace() = default;
  FrameWorkspace(const FrameWorkspace&) = delete;
  FrameWorkspace& operator=(const FrameWorkspace&) = delete;

  /// Total buffer-growth events since construction: every internal
  /// (re)allocation that actually grew a buffer counts one.  A
  /// steady-shape frame loop must leave this unchanged after its first
  /// frame — the zero-steady-state-allocation contract tests assert on.
  std::size_t grow_events() const { return grows_ + cfar_.grow_events; }

  /// The range-Doppler cube produced by the latest planned
  /// range_doppler() call into this workspace.
  const RangeDopplerCube& rd() const { return rd_; }

 private:
  friend class Processor;

  template <typename T>
  void ensure(std::vector<T>& v, std::size_t n) {
    if (v.capacity() < n) ++grows_;
    v.resize(n);
  }

  /// ensure() with room to start n floats on a 64-byte boundary, so every
  /// lane vector of up to 16 floats is one aligned cache line.
  float* ensure_aligned(std::vector<float>& v, std::size_t n) {
    constexpr std::size_t kAlign = 64;
    ensure(v, n + kAlign / sizeof(float));
    const auto addr = reinterpret_cast<std::uintptr_t>(v.data());
    return v.data() + ((kAlign - addr % kAlign) % kAlign) / sizeof(float);
  }

  RangeDopplerCube rd_;
  /// Range spectra of one channel, chirp-major: [n_chirps x stride], the
  /// stride being n_range rounded up to whole lane groups.
  std::vector<float> a_re_, a_im_;
  /// One lane group in flight: [fft size x lanes].
  std::vector<float> lane_re_, lane_im_;
  fuse::dsp::CfarScratch cfar_;
  std::vector<fuse::dsp::Detection2d> dets_;
  std::vector<cfloat> snapshot_;          ///< per-detection channel snapshot
  std::vector<float> az_re_, az_im_;      ///< zero-padded angle FFT (SoA)
  std::size_t grows_ = 0;
};

class Processor {
 public:
  explicit Processor(const RadarConfig& cfg);

  // ------------------------------------------------ planned frame path --
  // Zero steady-state allocations: all frame-sized buffers live in `ws`
  // (and, for detect/process, in the caller-reused `out`).

  /// True when the planned path accepts `cube`: one channel per virtual
  /// element, and no more chirps or samples than the configured frame.
  bool accepts(const RadarCube& cube) const;

  /// Stages 1-2 into the workspace cube; returns a reference to it (valid
  /// until the next call using `ws`).  Throws std::invalid_argument for a
  /// cube accepts() refuses.  Runs the dispatched lane variant.
  const RangeDopplerCube& range_doppler(const RadarCube& cube,
                                        FrameWorkspace& ws) const;

  /// The same through a chosen lane variant (one of
  /// dsp::host_lane_variants()); every variant gives the same bits.
  const RangeDopplerCube& range_doppler(
      const RadarCube& cube, FrameWorkspace& ws,
      const fuse::dsp::LaneVariant& variant) const;

  /// Stages 3-6 on a precomputed RD cube, reusing `out`'s buffers.  Throws
  /// std::invalid_argument when the cube's channel, range-bin or
  /// Doppler-bin count is not this processor's (as does every detect).
  void detect(const RangeDopplerCube& rd, FrameWorkspace& ws,
              ProcessedFrame& out) const;

  /// Full chain cube -> point cloud through the workspace.
  void process(const RadarCube& cube, FrameWorkspace& ws,
               ProcessedFrame& out) const;

  // -------------------------------------------------- compat interface --
  // Same maths (routed through the planned path with a temporary
  // workspace), allocating fresh outputs per call.

  /// Runs stages 1-2 (both FFTs, windowed, Doppler fftshifted).
  RangeDopplerCube range_doppler(const RadarCube& cube) const;

  /// Stage 3: non-coherent sum of |.|^2 across channels.
  std::vector<float> power_map(const RangeDopplerCube& rd) const;

  /// Stages 4-6 on a precomputed RD cube.
  ProcessedFrame detect(const RangeDopplerCube& rd) const;

  /// Full chain: cube -> point cloud.
  ProcessedFrame process(const RadarCube& cube) const;

  // ------------------------------------------------------ reference path --
  // The pre-plan scalar implementations (per-chirp vectors, fft_inplace,
  // O(train_cells) CFAR), kept as the bit-identity oracle for the planned
  // path and as the naive baseline in bench/dsp_throughput.

  RangeDopplerCube range_doppler_reference(const RadarCube& cube) const;
  ProcessedFrame detect_reference(const RangeDopplerCube& rd) const;
  ProcessedFrame process_reference(const RadarCube& cube) const;

  const RadarConfig& config() const { return cfg_; }
  std::size_t n_range_bins() const { return n_range_; }
  std::size_t n_doppler_bins() const { return n_doppler_; }
  /// Azimuth FFT length used for angle estimation (zero-padded).
  std::size_t angle_fft_size() const { return kAngleFftSize; }

 private:
  static constexpr std::size_t kAngleFftSize = 64;

  /// Throws std::invalid_argument unless `rd` has this processor's shape:
  /// estimate_angles reads one cell per virtual element.
  void check_rd_shape(const RangeDopplerCube& rd) const;

  /// Estimates arrival-direction cosines (u_x, u_z) for one detection from
  /// the per-channel RD snapshot, compensating the TDM-MIMO Doppler phase.
  /// If `second_peak` is non-null it receives the direction cosine of a
  /// genuine secondary azimuth peak (two bodies/limbs in the same
  /// range-Doppler cell), or the sentinel 2.0f when there is none.
  /// Snapshot and angle-FFT buffers come from `ws` (no per-call heap).
  void estimate_angles(const RangeDopplerCube& rd, std::size_t r,
                       std::size_t d, float velocity, FrameWorkspace& ws,
                       float* dir_cos_x, float* dir_cos_z,
                       float* second_peak = nullptr) const;

  /// Pre-plan angle estimator (fresh buffers + fft_inplace per call); the
  /// reference path uses it so the naive bench baseline stays honest.
  void estimate_angles_reference(const RangeDopplerCube& rd, std::size_t r,
                                 std::size_t d, float velocity,
                                 float* dir_cos_x, float* dir_cos_z,
                                 float* second_peak = nullptr) const;

  /// Shared stages 4-6 tail: sorts/caps `dets`, resolves angles and emits
  /// detections + Cartesian points into `out` (whose power_map and
  /// n_range/n_doppler must already be set).  ws == nullptr selects the
  /// reference angle estimator.
  void resolve_detections(const RangeDopplerCube& rd,
                          std::vector<fuse::dsp::Detection2d>& dets,
                          FrameWorkspace* ws, ProcessedFrame& out) const;

  RadarConfig cfg_;
  std::vector<VirtualElement> elems_;
  std::size_t n_range_;
  std::size_t n_doppler_;
  std::vector<float> range_window_;
  std::vector<float> doppler_window_;
  fuse::dsp::FftPlan range_plan_;
  fuse::dsp::FftPlan doppler_plan_;
  fuse::dsp::FftPlan angle_plan_;
  fuse::dsp::CfarConfig cfar_;
};

}  // namespace fuse::radar
