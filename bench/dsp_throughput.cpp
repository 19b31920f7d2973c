// Radar DSP front-end throughput: the plan-based, allocation-free frame
// path (dsp::FftPlan + radar::FrameWorkspace + prefix-sum CFAR) against
// the legacy scalar path (per-chirp vector<vector> spectra, fft_inplace
// with per-call twiddle recomputation, O(train_cells)-per-cell CFAR), at
// the fleet frame shape (IWR1443 default: 12 virtual channels x 64 chirps
// x 256 samples).
//
// Measured per stage and end to end on one thread — the cost a served
// frame pays, since a frame runs on the thread that serves it.  The rows
// run inside a util::InlineScope, so the reference path's
// channel-parallel loop serializes inline too and nothing escapes to the
// global pool:
//
//   range_doppler  both FFT passes, windowed + fftshifted
//   cfar2d         2-D CA-CFAR on the summed power map
//   pipeline       cube -> point cloud (FFTs + CFAR + angle estimation)
//
// These three rows run the dispatched lane variant (dsp/plan.h), whose
// name the bench prints and records as "lane_variant".  One extra
// range_doppler row per lane variant the host can run follows, in the
// "range_doppler_variants" array.
//
// The planned path must be an optimization, not a reinterpretation: the
// bench cross-checks that the planned FFT matches dft_reference, that the
// planned and reference CFAR detection sets are identical, and that the
// planned range-Doppler cube is bit-identical to the reference under
// every host lane variant — on the fixture frames and on cropped frames
// that leave partial lane groups — and exits non-zero if any of that
// fails, so CI catches a correctness regression before the speedup gate
// even runs.
//
// Run: ./dsp_throughput [--scale=1] [--smoke] [--out=DIR]
// Emits DIR/BENCH_dsp.json (perf ratios + detection counts, gated by
// bench/check_regression.py).

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "dsp/cfar.h"
#include "dsp/fft.h"
#include "dsp/plan.h"
#include "experiment_common.h"
#include "radar/processing.h"
#include "radar/simulator.h"
#include "util/atomic_file.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using fuse::radar::RadarCube;

struct StageRow {
  std::string stage;
  std::size_t threads = 1;
  double naive_fps = 0.0;
  double planned_fps = 0.0;
  double speedup() const { return planned_fps / naive_fps; }
};

/// range_doppler through one lane variant.
struct VariantRow {
  const fuse::dsp::LaneVariant* variant = nullptr;
  bool bit_identical = true;
  double planned_fps = 0.0;
};

/// The first nc chirps and ns samples of every channel of `cube`.
RadarCube crop(const RadarCube& cube, std::size_t nc, std::size_t ns) {
  RadarCube out(cube.n_virtual(), nc, ns);
  for (std::size_t v = 0; v < cube.n_virtual(); ++v)
    for (std::size_t c = 0; c < nc; ++c)
      std::memcpy(out.chirp_ptr(v, c), cube.chirp_ptr(v, c),
                  ns * sizeof(fuse::radar::cfloat));
  return out;
}

bool same_bits(const fuse::radar::RangeDopplerCube& a,
               const fuse::radar::RangeDopplerCube& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(fuse::radar::cfloat)) == 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const fuse::util::Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const double scale = smoke ? 0.3 : (cli.paper() ? 1.0 : cli.scale());

  const fuse::radar::RadarConfig cfg;  // IWR1443 defaults: the fleet shape
  const fuse::radar::Processor proc(cfg);

  const auto& dispatched = fuse::dsp::dispatched_lane_variant();
  std::printf("FUSE DSP front-end throughput: plan-based frame path vs "
              "legacy scalar path\n(%zu virtual x %zu chirps x %zu samples "
              "-> %zu x %zu map)\nlane variant: %s (%zu lanes); host runs",
              cfg.n_virtual(), cfg.chirps_per_frame, cfg.samples_per_chirp,
              proc.n_range_bins(), proc.n_doppler_bins(), dispatched.name,
              dispatched.lanes);
  std::vector<VariantRow> variants;
  for (const auto* v : fuse::dsp::host_lane_variants()) {
    std::printf(" %s", v->name);
    variants.push_back({v, true, 0.0});
  }
  std::printf("\n\n");

  // ------------------------------------------------------------ fixture --
  fuse::util::Rng rng(cli.seed() + 23);
  std::vector<RadarCube> cubes;
  fuse::util::Stopwatch prep;
  for (int i = 0; i < 3; ++i) {
    const auto scene = fuse::bench::make_bench_scene(rng);
    cubes.push_back(fuse::radar::simulate_frame(cfg, scene, rng));
  }
  std::printf("simulated %zu cubes [%.1f s]\n\n", cubes.size(),
              prep.seconds());

  // -------------------------------------------------- correctness gates --
  // Planned FFT vs the O(N^2) DFT oracle at both frame transform sizes.
  double fft_max_rel_err = 0.0;
  for (const std::size_t n :
       {proc.n_range_bins(), proc.n_doppler_bins()}) {
    fuse::util::Rng frng(n);
    std::vector<fuse::dsp::cfloat> v(n);
    for (auto& x : v)
      x = {frng.uniformf(-1.0f, 1.0f), frng.uniformf(-1.0f, 1.0f)};
    const auto ref = fuse::dsp::dft_reference(v);
    fuse::dsp::FftPlan plan(n);
    std::vector<float> re(n), im(n);
    for (std::size_t i = 0; i < n; ++i) {
      re[i] = v[i].real();
      im[i] = v[i].imag();
    }
    plan.execute(re.data(), im.data());
    double max_ref = 0.0, max_err = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      max_ref = std::max(max_ref, static_cast<double>(std::abs(ref[k])));
      max_err = std::max(
          max_err, static_cast<double>(std::abs(
                       ref[k] - fuse::dsp::cfloat(re[k], im[k]))));
    }
    fft_max_rel_err = std::max(fft_max_rel_err, max_err / max_ref);
  }

  // Planned vs reference range-Doppler cube (bit-identity) and CFAR
  // detection sets, summed over every fixture cube.
  fuse::radar::FrameWorkspace check_ws;
  fuse::dsp::CfarConfig ccfg;
  ccfg.guard_cells = 2;
  ccfg.train_cells = 8;
  ccfg.threshold_scale =
      fuse::dsp::cfar_scale_for_pfa(2 * ccfg.train_cells, cfg.cfar_pfa);
  ccfg.mode_2d = fuse::dsp::Cfar2dMode::kDopplerAxis;
  ccfg.local_max_2d = fuse::dsp::CfarLocalMax::kDoppler;

  // Every host lane variant on every fixture cube, plus crops that leave
  // partial lane groups (20 chirps of 100 samples; a single chirp).
  bool rd_bit_identical = true;
  std::vector<RadarCube> rd_checks = cubes;
  rd_checks.push_back(crop(cubes[0], 20, 100));
  rd_checks.push_back(crop(cubes[1], 1, cfg.samples_per_chirp));
  for (const auto& cube : rd_checks) {
    const auto ref_rd = proc.range_doppler_reference(cube);
    for (auto& row : variants)
      if (!same_bits(ref_rd, proc.range_doppler(cube, check_ws,
                                                *row.variant))) {
        row.bit_identical = false;
        rd_bit_identical = false;
      }
  }

  bool detections_match = true;
  std::size_t detections_total = 0;
  std::vector<std::vector<float>> power_maps;
  for (const auto& cube : cubes) {
    const auto& got_rd = proc.range_doppler(cube, check_ws);
    power_maps.push_back(proc.power_map(got_rd));
    const auto& pm = power_maps.back();
    const auto ref_dets = fuse::dsp::ca_cfar_2d_reference(
        pm, proc.n_range_bins(), proc.n_doppler_bins(), ccfg);
    const auto got_dets = fuse::dsp::ca_cfar_2d(
        pm, proc.n_range_bins(), proc.n_doppler_bins(), ccfg);
    detections_total += got_dets.size();
    if (ref_dets.size() != got_dets.size() ||
        std::memcmp(ref_dets.data(), got_dets.data(),
                    ref_dets.size() * sizeof(fuse::dsp::Detection2d)) != 0)
      detections_match = false;
  }
  std::printf("correctness: rd bit-identical %s, CFAR sets identical %s "
              "(%zu detections), fft max rel err %.2e\n",
              rd_bit_identical ? "yes" : "NO!",
              detections_match ? "yes" : "NO!", detections_total,
              fft_max_rel_err);
  for (const auto& row : variants)
    std::printf("  rd bit-identical under %s: %s\n", row.variant->name,
                row.bit_identical ? "yes" : "NO!");
  std::printf("\n");

  // ---------------------------------------------------------- throughput --
  const std::size_t hc = fuse::util::global_pool().size();

  const std::size_t frame_iters = fuse::util::scaled(20, scale, 5);
  const std::size_t cfar_iters = fuse::util::scaled(300, scale, 60);

  // Best-of-3 per measurement: the speedup ratios feed the CI regression
  // gate, so they must shrug off noisy-neighbour jitter on a shared core
  // (same policy as serve_throughput's backend sweep).
  constexpr std::size_t kRepeats = 3;
  const auto time_fps = [&](std::size_t iters,
                            const std::function<void(std::size_t)>& fn) {
    fn(0);  // warm caches and workspace
    double best = 0.0;
    for (std::size_t r = 0; r < kRepeats; ++r) {
      fuse::util::Stopwatch sw;
      for (std::size_t i = 0; i < iters; ++i) fn(i);
      best = std::max(best, static_cast<double>(iters) / sw.seconds());
    }
    return best;
  };

  std::vector<StageRow> rows;
  fuse::util::Table table("DSP throughput (frames/sec or maps/sec)");
  table.set_header(
      {"stage", "variant", "threads", "naive", "planned", "speedup"});

  StageRow rd{"range_doppler", 1, 0.0, 0.0};
  StageRow cf{"cfar2d", 1, 0.0, 0.0};
  StageRow pl{"pipeline", 1, 0.0, 0.0};

  {
    // The honest single-thread rows: every free parallel_for below runs
    // inline on this thread, as it does in a served frame.
    const fuse::util::InlineScope inline_scope;
    // Stage 1: both FFT passes.
    rd.naive_fps = time_fps(frame_iters, [&](std::size_t i) {
      const auto out = proc.range_doppler_reference(cubes[i % cubes.size()]);
      if (out.size() == 0) std::printf("!");  // defeat dead-code elim
    });
    fuse::radar::FrameWorkspace ws;
    rd.planned_fps = time_fps(frame_iters, [&](std::size_t i) {
      (void)proc.range_doppler(cubes[i % cubes.size()], ws);
    });
    for (auto& row : variants) {
      fuse::radar::FrameWorkspace vws;
      row.planned_fps = time_fps(frame_iters, [&](std::size_t i) {
        (void)proc.range_doppler(cubes[i % cubes.size()], vws, *row.variant);
      });
    }

    // Stage 2: 2-D CFAR on the precomputed power maps (single-threaded
    // in both implementations).
    cf.naive_fps = time_fps(cfar_iters, [&](std::size_t i) {
      const auto dets = fuse::dsp::ca_cfar_2d_reference(
          power_maps[i % power_maps.size()], proc.n_range_bins(),
          proc.n_doppler_bins(), ccfg);
      if (dets.size() == 999999) std::printf("!");
    });
    fuse::dsp::CfarScratch scratch;
    std::vector<fuse::dsp::Detection2d> dets;
    cf.planned_fps = time_fps(cfar_iters, [&](std::size_t i) {
      fuse::dsp::ca_cfar_2d(power_maps[i % power_maps.size()],
                            proc.n_range_bins(), proc.n_doppler_bins(),
                            ccfg, scratch, dets);
    });

    // Stage 3: the full cube -> point cloud pipeline.
    pl.naive_fps = time_fps(frame_iters, [&](std::size_t i) {
      const auto frame = proc.process_reference(cubes[i % cubes.size()]);
      if (frame.cloud.points.size() == 999999) std::printf("!");
    });
    fuse::radar::ProcessedFrame out;
    pl.planned_fps = time_fps(frame_iters, [&](std::size_t i) {
      proc.process(cubes[i % cubes.size()], ws, out);
    });
  }

  for (const StageRow* row : {&rd, &cf, &pl}) {
    table.add_row({row->stage, row == &cf ? "-" : dispatched.name,
                   std::to_string(row->threads),
                   fuse::util::Table::num(row->naive_fps, 1),
                   fuse::util::Table::num(row->planned_fps, 1),
                   fuse::util::Table::num(row->speedup(), 2) + "x"});
    rows.push_back(*row);
  }
  for (const auto& row : variants)
    table.add_row({"range_doppler", row.variant->name, "1",
                   fuse::util::Table::num(rd.naive_fps, 1),
                   fuse::util::Table::num(row.planned_fps, 1),
                   fuse::util::Table::num(row.planned_fps / rd.naive_fps, 2) +
                       "x"});
  const double pipeline_speedup_1t = pl.speedup();

  std::printf("%s\n", table.to_string().c_str());
  std::printf("planned pipeline over legacy scalar path (1 thread): %.2fx "
              "%s\n",
              pipeline_speedup_1t,
              pipeline_speedup_1t >= 2.0 ? "(>= 2x target met)"
                                         : "(below 2x target!)");

  fuse::util::JsonWriter w;
  w.begin_object().field("bench", "dsp_throughput")
      .field("host_threads", hc)
      .field("lane_variant", fuse::dsp::dispatched_lane_variant().name);
  w.key("frame_shape").begin_object().field("virtual", cfg.n_virtual())
      .field("chirps", cfg.chirps_per_frame)
      .field("samples", cfg.samples_per_chirp).end_object();
  w.key("stages").begin_array();
  for (const auto& r : rows)
    w.begin_object().field("stage", r.stage).field("threads", r.threads)
        .field("naive_fps", r.naive_fps).field("planned_fps", r.planned_fps)
        .field("speedup_planned_over_naive", r.speedup()).end_object();
  w.end_array().key("range_doppler_variants").begin_array();
  for (const auto& v : variants)
    w.begin_object().field("variant", v.variant->name)
        .field("lanes", v.variant->lanes).field("threads", 1)
        .field("planned_fps", v.planned_fps)
        .field("speedup_over_naive", v.planned_fps / rd.naive_fps)
        .field("bit_identical", v.bit_identical).end_object();
  w.end_array()
      .field("pipeline_speedup_planned_over_naive", pipeline_speedup_1t)
      .field("detections_total", detections_total)
      .field("detections_match", detections_match)
      .field("rd_bit_identical", rd_bit_identical)
      .field("fft_max_rel_err", fft_max_rel_err).end_object();
  const std::string path = cli.out_dir() + "/BENCH_dsp.json";
  fuse::util::write_file_atomic(path, w.str());
  std::printf("wrote %s\n", path.c_str());
  const bool correct =
      rd_bit_identical && detections_match && fft_max_rel_err < 1e-5;
  if (!correct)
    std::fprintf(stderr, "error: planned path diverges from reference!\n");
  return correct ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
