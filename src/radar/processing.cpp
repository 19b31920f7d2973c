#include "radar/processing.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.h"
#include "dsp/window.h"
#include "util/thread_pool.h"

namespace fuse::radar {

namespace {
constexpr double kTau = 6.283185307179586476925286766559;

/// Stage 3 shared by every path: non-coherent |.|^2 sum across channels,
/// channel-major so the per-cell accumulation order (and therefore the
/// float rounding) is identical everywhere.  The inner loop runs over
/// contiguous memory with independent iterations, so it vectorizes.
void accumulate_power(const RangeDopplerCube& rd, std::vector<float>& p) {
  const std::size_t cells = rd.n_range() * rd.n_doppler();
  p.assign(cells, 0.0f);
  for (std::size_t v = 0; v < rd.n_virtual(); ++v) {
    const cfloat* base = rd.data() + v * cells;
    float* out = p.data();
    for (std::size_t i = 0; i < cells; ++i) {
      const float re = base[i].real();
      const float im = base[i].imag();
      out[i] += re * re + im * im;
    }
  }
}

}  // namespace

Processor::Processor(const RadarConfig& cfg)
    : cfg_(cfg),
      elems_(make_virtual_array(cfg)),
      n_range_(fuse::dsp::next_pow2(cfg.samples_per_chirp)),
      n_doppler_(fuse::dsp::next_pow2(cfg.chirps_per_frame)),
      range_plan_(n_range_),
      doppler_plan_(n_doppler_),
      angle_plan_(kAngleFftSize) {
  cfg_.validate();
  range_window_ =
      fuse::dsp::make_window(fuse::dsp::WindowType::kHann,
                             cfg_.samples_per_chirp);
  doppler_window_ =
      fuse::dsp::make_window(fuse::dsp::WindowType::kHamming,
                             cfg_.chirps_per_frame);
  cfar_.guard_cells = 2;
  cfar_.train_cells = 8;
  cfar_.threshold_scale =
      fuse::dsp::cfar_scale_for_pfa(2 * cfar_.train_cells, cfg_.cfar_pfa);
  // Doppler-axis CFAR with Doppler-axis local-max gating: extended bodies
  // occupy many contiguous range bins, so range-axis training would be
  // contaminated and suppress them (see Cfar2dMode docs).
  cfar_.mode_2d = fuse::dsp::Cfar2dMode::kDopplerAxis;
  cfar_.local_max_2d = fuse::dsp::CfarLocalMax::kDoppler;
}

// ---------------------------------------------------- planned frame path --

bool Processor::accepts(const RadarCube& cube) const {
  // Guard against the WINDOW lengths, not the padded FFT sizes: with a
  // non-power-of-two samples_per_chirp, n_range_ exceeds the Hann window,
  // and a cube sized in between would read past the window vector.  A
  // channel count other than the array's would make estimate_angles read
  // past (or misassign) the cube's channels.
  return cube.n_virtual() == elems_.size() &&
         cube.n_samples() <= range_window_.size() &&
         cube.n_chirps() <= doppler_window_.size();
}

const RangeDopplerCube& Processor::range_doppler(const RadarCube& cube,
                                                 FrameWorkspace& ws) const {
  return range_doppler(cube, ws, fuse::dsp::dispatched_lane_variant());
}

const RangeDopplerCube& Processor::range_doppler(
    const RadarCube& cube, FrameWorkspace& ws,
    const fuse::dsp::LaneVariant& variant) const {
  const std::size_t nv = cube.n_virtual();
  const std::size_t nc = cube.n_chirps();
  const std::size_t ns = cube.n_samples();
  if (!accepts(cube))
    throw std::invalid_argument(
        "Processor::range_doppler: cube shape does not match the configured "
        "frame");
  const std::size_t L = variant.lanes;
  // Whole lane groups per range spectrum, so the Doppler pass's last group
  // never reads past a row (the pad lanes carry stale values and their
  // spectra are dropped).
  const std::size_t stride = (n_range_ + L - 1) / L * L;
  if (ws.rd_.resize(nv, n_range_, n_doppler_)) ++ws.grows_;
  float* a_re = ws.ensure_aligned(ws.a_re_, nc * stride);
  float* a_im = ws.ensure_aligned(ws.a_im_, nc * stride);
  float* l_re = ws.ensure_aligned(ws.lane_re_,
                                  std::max(n_range_, n_doppler_) * L);
  float* l_im = ws.ensure_aligned(ws.lane_im_,
                                  std::max(n_range_, n_doppler_) * L);
  for (std::size_t v = 0; v < nv; ++v) {
    // Range FFTs, L chirps per lane group: the Hann window, zero padding
    // and bit reversal are fused into the load, and the store
    // de-interleaves the group into chirp-major rows.
    for (std::size_t c0 = 0; c0 < nc; c0 += L) {
      const std::size_t rows = std::min(L, nc - c0);
      range_plan_.load_lanes(variant, cube.chirp_ptr(v, c0), ns, rows, ns,
                             range_window_.data(), l_re, l_im);
      range_plan_.execute_lanes(variant, l_re, l_im);
      range_plan_.store_lanes(variant, l_re, l_im, rows, a_re + c0 * stride,
                              a_im + c0 * stride, stride);
    }

    // Doppler FFTs, L range bins per lane group.  The corner turn is
    // contiguous (bins r0..r0+L of chirp c are one vector), and the
    // optional static clutter removal (subtract the chirp-mean so the DC
    // bin vanishes), the Hamming window and the bit reversal are fused
    // into the load; chirp padding up to n_doppler_ is zero.
    cfloat* out = ws.rd_.data() + v * n_range_ * n_doppler_;
    for (std::size_t r0 = 0; r0 < n_range_; r0 += L) {
      doppler_plan_.load_lane_columns(variant, a_re + r0, a_im + r0, stride,
                                      nc, doppler_window_.data(),
                                      cfg_.static_clutter_removal, l_re,
                                      l_im);
      doppler_plan_.execute_lanes(variant, l_re, l_im);
      // fftshift while de-interleaving back into the output cube.
      doppler_plan_.store_lanes_shifted(variant, l_re, l_im,
                                        std::min(L, n_range_ - r0),
                                        out + r0 * n_doppler_, n_doppler_);
    }
  }
  return ws.rd_;
}

void Processor::check_rd_shape(const RangeDopplerCube& rd) const {
  if (rd.n_virtual() != elems_.size() || rd.n_range() != n_range_ ||
      rd.n_doppler() != n_doppler_)
    throw std::invalid_argument(
        "Processor::detect: range-Doppler cube shape does not match the "
        "configured frame");
}

void Processor::detect(const RangeDopplerCube& rd, FrameWorkspace& ws,
                       ProcessedFrame& out) const {
  check_rd_shape(rd);
  out.n_range = rd.n_range();
  out.n_doppler = rd.n_doppler();
  accumulate_power(rd, out.power_map);
  const std::size_t dets_cap = ws.dets_.capacity();
  fuse::dsp::ca_cfar_2d(out.power_map, out.n_range, out.n_doppler, cfar_,
                        ws.cfar_, ws.dets_);
  if (ws.dets_.capacity() > dets_cap) ++ws.grows_;
  resolve_detections(rd, ws.dets_, &ws, out);
}

void Processor::process(const RadarCube& cube, FrameWorkspace& ws,
                        ProcessedFrame& out) const {
  range_doppler(cube, ws);
  detect(ws.rd_, ws, out);
}

// ------------------------------------------------------ compat interface --

RangeDopplerCube Processor::range_doppler(const RadarCube& cube) const {
  FrameWorkspace ws;
  range_doppler(cube, ws);
  return std::move(ws.rd_);
}

std::vector<float> Processor::power_map(const RangeDopplerCube& rd) const {
  std::vector<float> p;
  accumulate_power(rd, p);
  return p;
}

ProcessedFrame Processor::detect(const RangeDopplerCube& rd) const {
  FrameWorkspace ws;
  ProcessedFrame out;
  detect(rd, ws, out);
  return out;
}

ProcessedFrame Processor::process(const RadarCube& cube) const {
  FrameWorkspace ws;
  ProcessedFrame out;
  process(cube, ws, out);
  return out;
}

// ------------------------------------------------------- reference path --

RangeDopplerCube Processor::range_doppler_reference(
    const RadarCube& cube) const {
  const std::size_t nv = cube.n_virtual();
  const std::size_t nc = cube.n_chirps();
  const std::size_t ns = cube.n_samples();
  if (!accepts(cube))
    throw std::invalid_argument(
        "Processor::range_doppler_reference: cube shape does not match the "
        "configured frame");
  RangeDopplerCube rd(nv, n_range_, n_doppler_);

  fuse::util::parallel_for(0, nv, [&](std::size_t v0, std::size_t v1) {
    std::vector<cfloat> buf;
    for (std::size_t v = v0; v < v1; ++v) {
      // Range FFT per chirp; store range spectra transposed into the RD
      // cube so the Doppler pass reads contiguously per range bin.
      std::vector<std::vector<cfloat>> range_spectra(nc);
      for (std::size_t c = 0; c < nc; ++c) {
        buf.assign(cube.chirp_ptr(v, c), cube.chirp_ptr(v, c) + ns);
        for (std::size_t s = 0; s < ns; ++s) buf[s] *= range_window_[s];
        buf.resize(n_range_);
        fuse::dsp::fft_inplace(buf);
        range_spectra[c] = buf;
      }
      // Doppler FFT per range bin across chirps, with optional static
      // clutter removal (subtract the chirp-mean so the DC bin vanishes).
      std::vector<cfloat> dop(n_doppler_);
      for (std::size_t r = 0; r < n_range_; ++r) {
        cfloat mean{};
        if (cfg_.static_clutter_removal) {
          for (std::size_t c = 0; c < nc; ++c) mean += range_spectra[c][r];
          mean *= 1.0f / static_cast<float>(nc);
        }
        std::fill(dop.begin(), dop.end(), cfloat{});
        for (std::size_t c = 0; c < nc; ++c)
          dop[c] = (range_spectra[c][r] - mean) * doppler_window_[c];
        fuse::dsp::fft_inplace(dop);
        fuse::dsp::fftshift(dop);
        for (std::size_t d = 0; d < n_doppler_; ++d) rd.at(v, r, d) = dop[d];
      }
    }
  });
  return rd;
}

ProcessedFrame Processor::detect_reference(const RangeDopplerCube& rd) const {
  check_rd_shape(rd);
  ProcessedFrame out;
  out.n_range = rd.n_range();
  out.n_doppler = rd.n_doppler();
  accumulate_power(rd, out.power_map);
  auto dets = fuse::dsp::ca_cfar_2d_reference(out.power_map, out.n_range,
                                              out.n_doppler, cfar_);
  resolve_detections(rd, dets, nullptr, out);
  return out;
}

ProcessedFrame Processor::process_reference(const RadarCube& cube) const {
  return detect_reference(range_doppler_reference(cube));
}

// -------------------------------------------------------- stages 4 to 6 --

void Processor::resolve_detections(const RangeDopplerCube& rd,
                                   std::vector<fuse::dsp::Detection2d>& dets,
                                   FrameWorkspace* ws,
                                   ProcessedFrame& out) const {
  // Strongest first; cap at the configured point budget.
  std::sort(dets.begin(), dets.end(),
            [](const auto& a, const auto& b) { return a.snr > b.snr; });
  if (dets.size() > cfg_.max_points) dets.resize(cfg_.max_points);

  out.detections.clear();
  out.cloud.points.clear();

  const double range_res =
      cfg_.max_range_m() / static_cast<double>(n_range_);
  const double v_res = cfg_.wavelength() /
                       (2.0 * static_cast<double>(n_doppler_) *
                        cfg_.doppler_chirp_period_s());

  for (const auto& det : dets) {
    RadarDetection rdet;
    rdet.range_bin = det.row;
    rdet.doppler_bin = det.col;

    // Sub-bin interpolation along range.
    float off_r = 0.0f;
    if (det.row > 0 && det.row + 1 < out.n_range) {
      off_r = fuse::dsp::parabolic_peak_offset(
          out.power_map[(det.row - 1) * out.n_doppler + det.col], det.power,
          out.power_map[(det.row + 1) * out.n_doppler + det.col]);
    }
    rdet.range_m =
        static_cast<float>((static_cast<double>(det.row) + off_r) * range_res);
    if (rdet.range_m < 1e-3f) continue;

    // Doppler bin -> signed velocity (bin n_doppler/2 == 0 after fftshift).
    const double k_dop = static_cast<double>(det.col) -
                         static_cast<double>(out.n_doppler) / 2.0;
    rdet.velocity_mps = static_cast<float>(k_dop * v_res);
    rdet.snr_db = 10.0f * std::log10(std::max(det.snr, 1e-6f));

    float second_ux = 2.0f;
    if (ws != nullptr) {
      estimate_angles(rd, det.row, det.col, rdet.velocity_mps, *ws,
                      &rdet.dir_cos_x, &rdet.dir_cos_z, &second_ux);
    } else {
      estimate_angles_reference(rd, det.row, det.col, rdet.velocity_mps,
                                &rdet.dir_cos_x, &rdet.dir_cos_z, &second_ux);
    }
    out.detections.push_back(rdet);

    // Cartesian reconstruction from direction cosines: u_y follows from
    // |u| = 1 (targets are in front of the array, u_y >= 0).
    auto emit_point = [&](float ux, float uz, float snr_db) {
      RadarPoint p;
      const float uy2 = 1.0f - ux * ux - uz * uz;
      const float uy = uy2 > 0.0f ? std::sqrt(uy2) : 0.0f;
      p.x = rdet.range_m * ux;
      p.y = rdet.range_m * uy;
      p.z = rdet.range_m * uz + static_cast<float>(cfg_.radar_height_m);
      p.doppler = rdet.velocity_mps;
      p.intensity = snr_db;
      out.cloud.points.push_back(p);
    };
    emit_point(rdet.dir_cos_x, rdet.dir_cos_z, rdet.snr_db);
    // Secondary azimuth peak in the same range-Doppler cell becomes its own
    // point (the firmware behaviour that makes body clouds denser).
    if (second_ux <= 1.0f)
      emit_point(second_ux, rdet.dir_cos_z, rdet.snr_db - 4.0f);
  }
}

namespace {

/// Shared tail of both angle estimators, reading the azimuth spectrum as
/// SoA power.  All arithmetic matches the pre-plan implementation exactly.
void azimuth_from_spectrum(const float* az_re, const float* az_im,
                           std::size_t fft_size, std::size_t n_az,
                           float* dir_cos_x, float* second_peak) {
  auto norm_at = [&](std::size_t k) -> float {
    return az_re[k] * az_re[k] + az_im[k] * az_im[k];
  };
  std::size_t best = 0;
  float best_pow = 0.0f;
  for (std::size_t k = 0; k < fft_size; ++k) {
    const float p = norm_at(k);
    if (p > best_pow) {
      best_pow = p;
      best = k;
    }
  }
  if (second_peak != nullptr) {
    // Strongest azimuth peak at least one beamwidth away from the main one
    // (beamwidth = fft_size / n_az FFT bins).
    const std::size_t min_sep = fft_size / n_az;
    std::size_t b2 = fft_size;
    float p2 = 0.0f;
    for (std::size_t k = 0; k < fft_size; ++k) {
      const std::size_t d1 = (k + fft_size - best) % fft_size;
      const std::size_t dist = std::min(d1, fft_size - d1);
      if (dist < min_sep) continue;
      const float p = norm_at(k);
      if (p > p2) {
        p2 = p;
        b2 = k;
      }
    }
    // Report only when it is a genuine secondary lobe-free peak: local max
    // and within 9 dB of the main peak.
    if (b2 < fft_size && p2 > 0.125f * best_pow) {
      double k2 = static_cast<double>(b2);
      if (k2 >= static_cast<double>(fft_size) / 2.0)
        k2 -= static_cast<double>(fft_size);
      *second_peak = static_cast<float>(std::clamp(
          2.0 * k2 / static_cast<double>(fft_size), -1.0, 1.0));
    } else {
      *second_peak = 2.0f;  // sentinel: no secondary peak
    }
  }
  // Signed spatial frequency bin -> sin(azimuth).  d_spacing = lambda/2 so
  // sin(az) = 2 k / N with k in [-N/2, N/2).
  const float pl = norm_at((best + fft_size - 1) % fft_size);
  const float pr = norm_at((best + 1) % fft_size);
  const float frac = fuse::dsp::parabolic_peak_offset(pl, best_pow, pr);
  double k_signed = static_cast<double>(best) + frac;
  if (k_signed >= static_cast<double>(fft_size) / 2.0)
    k_signed -= static_cast<double>(fft_size);
  // The FFT peak at signed bin k corresponds to direction cosine
  // u_x = 2 k / N for the lambda/2 ULA (phase model e^{+j pi v u_x}).
  double ux = 2.0 * k_signed / static_cast<double>(fft_size);
  ux = std::clamp(ux, -1.0, 1.0);
  *dir_cos_x = static_cast<float>(ux);
}

/// Elevation monopulse shared by both estimators.
float elevation_monopulse(const cfloat* snapshot, std::size_t n_az,
                          std::size_t n_rx) {
  std::complex<double> acc(0.0, 0.0);
  for (std::size_t i = 0; i < n_rx; ++i) {
    const cfloat lower = snapshot[i];           // azimuth element i
    const cfloat upper = snapshot[n_az + i];    // elevated element i
    acc += std::complex<double>(upper) *
           std::conj(std::complex<double>(lower));
  }
  // Upper row leads the lower row by pi * u_z (lambda/2 height offset).
  const double dphi = std::arg(acc);
  double uz = dphi / (kTau / 2.0);
  uz = std::clamp(uz, -1.0, 1.0);
  return static_cast<float>(uz);
}

}  // namespace

void Processor::estimate_angles(const RangeDopplerCube& rd, std::size_t r,
                                std::size_t d, float velocity,
                                FrameWorkspace& ws, float* dir_cos_x,
                                float* dir_cos_z, float* second_peak) const {
  const double lambda = cfg_.wavelength();
  const double f_doppler = 2.0 * static_cast<double>(velocity) / lambda;
  const double t_rep = cfg_.chirp_repeat_s();

  // TDM Doppler compensation: channel from TX slot k accumulated an extra
  // phase 2 pi f_d k T_rep; remove it before beamforming.
  const std::size_t n_az = cfg_.n_virtual_azimuth();
  ws.ensure(ws.snapshot_, elems_.size());
  cfloat* snapshot = ws.snapshot_.data();
  for (std::size_t v = 0; v < elems_.size(); ++v) {
    const double phi =
        kTau * f_doppler * static_cast<double>(elems_[v].tx_slot) * t_rep;
    const cfloat comp(static_cast<float>(std::cos(phi)),
                      static_cast<float>(-std::sin(phi)));
    snapshot[v] = rd.at(v, r, d) * comp;
  }

  // Azimuth: zero-padded FFT across the lambda/2 ULA, through the shared
  // angle plan and the workspace's SoA scratch.
  ws.ensure(ws.az_re_, kAngleFftSize);
  ws.ensure(ws.az_im_, kAngleFftSize);
  float* az_re = ws.az_re_.data();
  float* az_im = ws.az_im_.data();
  std::fill(az_re, az_re + kAngleFftSize, 0.0f);
  std::fill(az_im, az_im + kAngleFftSize, 0.0f);
  for (std::size_t v = 0; v < n_az; ++v) {
    az_re[v] = snapshot[v].real();
    az_im[v] = snapshot[v].imag();
  }
  angle_plan_.execute(az_re, az_im);

  azimuth_from_spectrum(az_re, az_im, kAngleFftSize, n_az, dir_cos_x,
                        second_peak);

  // Elevation: monopulse between the elevated row and the matching azimuth
  // elements (same x positions, slot-compensated above).  The lambda/2
  // height offset gives delta_phi = pi sin(el).
  *dir_cos_z = cfg_.has_elevation_tx
                   ? elevation_monopulse(snapshot, n_az, cfg_.n_rx)
                   : 0.0f;
}

void Processor::estimate_angles_reference(const RangeDopplerCube& rd,
                                          std::size_t r, std::size_t d,
                                          float velocity, float* dir_cos_x,
                                          float* dir_cos_z,
                                          float* second_peak) const {
  const double lambda = cfg_.wavelength();
  const double f_doppler = 2.0 * static_cast<double>(velocity) / lambda;
  const double t_rep = cfg_.chirp_repeat_s();

  const std::size_t n_az = cfg_.n_virtual_azimuth();
  std::vector<cfloat> snapshot(elems_.size());
  for (std::size_t v = 0; v < elems_.size(); ++v) {
    const double phi =
        kTau * f_doppler * static_cast<double>(elems_[v].tx_slot) * t_rep;
    const cfloat comp(static_cast<float>(std::cos(phi)),
                      static_cast<float>(-std::sin(phi)));
    snapshot[v] = rd.at(v, r, d) * comp;
  }

  // Azimuth: zero-padded FFT across the lambda/2 ULA (fresh buffer +
  // fft_inplace, as before the plan rewrite).
  std::vector<cfloat> az(kAngleFftSize, cfloat{});
  for (std::size_t v = 0; v < n_az; ++v) az[v] = snapshot[v];
  fuse::dsp::fft_inplace(az);
  std::vector<float> az_re(kAngleFftSize), az_im(kAngleFftSize);
  for (std::size_t k = 0; k < kAngleFftSize; ++k) {
    az_re[k] = az[k].real();
    az_im[k] = az[k].imag();
  }
  azimuth_from_spectrum(az_re.data(), az_im.data(), kAngleFftSize, n_az,
                        dir_cos_x, second_peak);

  *dir_cos_z = cfg_.has_elevation_tx
                   ? elevation_monopulse(snapshot.data(), n_az, cfg_.n_rx)
                   : 0.0f;
}

}  // namespace fuse::radar
