#include "layers.h"

#include <filesystem>
#include <stdexcept>

#include "checks.h"
#include "core/finetune.h"
#include "nn/delta.h"
#include "nn/sequential.h"
#include "serve/stats.h"

namespace perfbench {

namespace {

using fuse::serve::mono_seconds;

// What each layer's rows should move (README.md explains the reasoning).
const char* const kMovesDsp =
    "latency_p50_ms, server_cpu_ms_per_frame on cubes_readonly; no change "
    "on clouds_readonly";
const char* const kMovesFeaturize = "control layer: no change anywhere";
const char* const kMovesB16 =
    "server_cpu_ms_per_frame on clouds_readonly once batches fill";
const char* const kMovesB1 =
    "latency_p50_ms, server_cpu_ms_per_frame on clouds_readonly";
const char* const kMovesAdapt =
    "adapt_mixed (not in BENCHMARK.json); no change on the read-only "
    "workloads";
const char* const kMovesClone = "peak_rss_mb on adapt_mixed";

/// Times `fn` `reps` times, one replay span per call; returns the median
/// duration in seconds.
template <typename Fn>
double time_calls(Tracer& tracer, const char* name, int reps, Fn&& fn) {
  std::vector<double> d;
  d.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const double t0 = mono_seconds();
    fn();
    const double t1 = mono_seconds();
    tracer.span(name, Track::kReplay, t0, t1);
    d.push_back(t1 - t0);
  }
  return quantile(d, 0.5);
}

/// The fused windows of the first `n` frames the workload's sessions send
/// (session-major), as featurize_window would see them.
std::vector<std::vector<std::uint32_t>> sample_windows(const Workload& w,
                                                       std::size_t n) {
  std::vector<std::vector<std::uint32_t>> out;
  const std::size_t m = w.window_frames();
  for (std::size_t s = 0; out.size() < n; ++s)
    for (std::uint32_t k = 0; k < 8 && out.size() < n; ++k) {
      std::vector<std::uint32_t> win;
      for (std::uint32_t j = k + 1 > m ? k + 1 - m : 0; j <= k; ++j)
        win.push_back(w.input_of(s, j));
      out.push_back(std::move(win));
    }
  return out;
}

/// The first `n` windows, featurized into one batch.
fuse::tensor::Tensor featurized_batch(
    const Workload& w, const std::vector<std::vector<std::uint32_t>>& windows,
    std::size_t n) {
  const auto& pred = w.pipeline().predictor();
  fuse::tensor::Tensor x = pred.alloc_batch(n);
  const std::size_t block = x.numel() / n;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<const fuse::radar::PointCloud*> clouds;
    for (const auto in : windows[i]) clouds.push_back(&w.cloud(in));
    pred.featurize_window(clouds.data(), clouds.size(), x.data() + i * block);
  }
  return x;
}

void replay_dsp(const Workload& w, std::uint64_t seed, Tracer& tracer,
                std::vector<LayerMetric>& out) {
  // Cube workloads replay their own cubes; the others four simulated from
  // the same seed, so every workload reports the rows.
  CubeClips local;
  if (w.cubes().empty()) local = simulate_cube_clips(seed, 4, 1);
  const auto& cubes = w.cubes().empty() ? local.cubes : w.cubes();
  const auto& proc = w.pipeline().processor();
  fuse::radar::FrameWorkspace ws;
  fuse::radar::ProcessedFrame frame;
  proc.process(cubes.front(), ws, frame);  // size the workspace once
  // The same CA-CFAR set-up Processor uses (radar/processing.cpp).
  fuse::dsp::CfarConfig cfar;
  cfar.guard_cells = 2;
  cfar.train_cells = 8;
  cfar.threshold_scale = fuse::dsp::cfar_scale_for_pfa(
      2 * cfar.train_cells, proc.config().cfar_pfa);
  cfar.mode_2d = fuse::dsp::Cfar2dMode::kDopplerAxis;
  cfar.local_max_2d = fuse::dsp::CfarLocalMax::kDoppler;

  std::vector<double> rd_s, cfar_s, det_s;
  double points = 0.0;
  std::size_t detections = 0;  // keeps the CFAR result in use
  std::size_t frames = 0;
  const int reps = cubes.size() >= 16 ? 1 : 4;
  for (int r = 0; r < reps; ++r)
    for (const auto& cube : cubes) {
      rd_s.push_back(time_calls(tracer, "dsp.range_doppler", 1, [&] {
        proc.range_doppler(cube, ws);
      }));
      const auto power = proc.power_map(ws.rd());
      cfar_s.push_back(time_calls(tracer, "dsp.cfar2d", 1, [&] {
        detections += fuse::dsp::ca_cfar_2d(power, proc.n_range_bins(),
                                            proc.n_doppler_bins(), cfar)
                          .size();
      }));
      det_s.push_back(time_calls(tracer, "dsp.detect", 1, [&] {
        proc.detect(ws.rd(), ws, frame);
      }));
      points += static_cast<double>(frame.cloud.size());
      ++frames;
    }
  out.push_back({"dsp.range_doppler_ms", quantile(rd_s, 0.5) * 1e3, "ms",
                 kMovesDsp});
  out.push_back({"dsp.cfar2d_ms", quantile(cfar_s, 0.5) * 1e3, "ms",
                 kMovesDsp});
  out.push_back({"dsp.detect_ms", quantile(det_s, 0.5) * 1e3, "ms",
                 kMovesDsp});
  out.push_back({"dsp.points_per_frame", points / static_cast<double>(frames),
                 "points", kMovesDsp});
}

void replay_featurize(const Workload& w, Tracer& tracer,
                      const std::vector<std::vector<std::uint32_t>>& windows,
                      std::vector<LayerMetric>& out) {
  const auto& pred = w.pipeline().predictor();
  fuse::core::PredictScratch scratch;
  std::vector<float> block(pred.alloc_batch(1).numel());
  std::vector<const fuse::radar::PointCloud*> clouds;
  std::vector<double> d;
  for (const auto& win : windows) {
    clouds.clear();
    for (const auto in : win) clouds.push_back(&w.cloud(in));
    d.push_back(time_calls(tracer, "featurize.window", 1, [&] {
      pred.featurize_window(clouds.data(), clouds.size(), block.data(),
                            scratch);
    }));
  }
  out.push_back({"featurize.window_us", quantile(d, 0.5) * 1e6, "us",
                 kMovesFeaturize});
}

void replay_nn(const Workload& w, Tracer& tracer,
               const std::vector<std::vector<std::uint32_t>>& windows,
               std::vector<LayerMetric>& out) {
  const auto& model = w.pipeline().model();
  const auto* seq = dynamic_cast<const fuse::nn::Sequential*>(&model);
  if (seq == nullptr)
    throw std::runtime_error("perfbench: the served model is not Sequential");
  static const char* const kNames[] = {"conv1", "conv2", "fc1", "fc2"};
  constexpr std::size_t kLayers = 4;
  const auto backend = fuse::nn::Backend::kGemm;
  double weight_bytes = 0.0;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
    const int reps = batch == 1 ? 200 : 40;
    const std::string b = ".b" + std::to_string(batch);
    const auto x = featurized_batch(w, windows, batch);
    const char* moves = batch == 1 ? kMovesB1 : kMovesB16;
    const char* model_span = tracer.intern("nn.model" + b);
    std::vector<const char*> spans;
    for (const char* name : kNames)
      spans.push_back(tracer.intern(std::string("nn.") + name + b));
    // Each rep runs the model child by child, timing every parameterised
    // child on the activations it sees in the model, then runs the whole
    // model, so layer and model times share the host's conditions.
    std::vector<std::vector<double>> layer_s(kLayers);
    std::vector<double> model_s, macs(kLayers, 0.0);
    for (int r = 0; r < reps; ++r) {
      fuse::tensor::Tensor act = x;
      std::size_t named = 0;
      for (std::size_t i = 0; i < seq->size(); ++i) {
        const auto& child = seq->child(i);
        const auto params = child.params();
        if (params.empty() || named >= kLayers) {
          act = child.infer(act, backend);
          continue;
        }
        const double t0 = mono_seconds();
        auto y = child.infer(act, backend);
        const double t1 = mono_seconds();
        tracer.span(spans[named], Track::kReplay, t0, t1);
        layer_s[named].push_back(t1 - t0);
        // MACs from shapes: each output element is a dot product over
        // weight.numel() / bias.numel() inputs.
        macs[named] = static_cast<double>(y.numel()) *
                      static_cast<double>(params[0]->numel()) /
                      static_cast<double>(params[1]->numel());
        if (r == 0 && batch == 1)
          for (const auto* p : params)
            weight_bytes += static_cast<double>(p->numel() * sizeof(float));
        act = std::move(y);
        ++named;
      }
      model_s.push_back(time_calls(tracer, model_span, 1, [&] {
        (void)model.infer(x, backend);
      }));
    }
    for (std::size_t l = 0; l < kLayers; ++l) {
      const double s = quantile(layer_s[l], 0.5);
      const std::string layer = std::string("nn.") + kNames[l] + b;
      out.push_back({layer + ".ms", s * 1e3, "ms", moves});
      out.push_back({layer + ".gflops", 2.0 * macs[l] / s / 1e9, "GFLOP/s",
                     moves});
    }
    out.push_back({"nn.model" + b + ".ms", quantile(model_s, 0.5) * 1e3, "ms",
                   moves});
  }
  out.push_back({"nn.weights_mb", weight_bytes / 1e6, "MB",
                 std::string("computed from tensor shapes; ") + kMovesB16});
}

void replay_adapt_and_clone(
    const Workload& w, Tracer& tracer,
    const std::vector<std::vector<std::uint32_t>>& windows,
    const std::string& scratch_dir, std::vector<LayerMetric>& out) {
  const fuse::serve::AdaptConfig acfg;  // what the server adapts with
  const auto& model = w.pipeline().model();
  const auto& feat = w.pipeline().featurizer();
  const std::size_t n = acfg.buffer_capacity;
  const auto x64 = featurized_batch(w, windows, n);
  fuse::tensor::Tensor y64({n, fuse::human::kNumCoords});
  for (std::size_t i = 0; i < n; ++i) {
    const auto norm = feat.normalize_pose(w.label(windows[i].back()));
    std::copy(norm.begin(), norm.end(),
              y64.data() + i * fuse::human::kNumCoords);
  }
  const std::size_t m = acfg.min_samples;
  const auto x16 = featurized_batch(w, windows, m);
  fuse::tensor::Tensor y16({m, fuse::human::kNumCoords});
  std::copy(y64.data(), y64.data() + y16.numel(), y16.data());

  std::unique_ptr<fuse::nn::Module> clone;
  const double clone_s =
      time_calls(tracer, "adapt.clone", 5, [&] { clone = model.clone(); });
  const double b16 = time_calls(tracer, "adapt.sgd_step.b16", 6, [&] {
    fuse::core::sgd_step(*clone, x16, y16, acfg.lr, acfg.grad_clip);
  });
  const double b64 = time_calls(tracer, "adapt.sgd_step.b64", 6, [&] {
    fuse::core::sgd_step(*clone, x64, y64, acfg.lr, acfg.grad_clip);
  });
  out.push_back({"adapt.sgd_step.b16_ms", b16 * 1e3, "ms", kMovesAdapt});
  out.push_back({"adapt.sgd_step.b64_ms", b64 * 1e3, "ms", kMovesAdapt});
  out.push_back({"adapt.clone_ms", clone_s * 1e3, "ms", kMovesAdapt});

  // The clone layer round-trips the adapted clone through the delta codec.
  std::filesystem::create_directories(scratch_dir);
  const std::string path = scratch_dir + "/replay_clone.delta";
  const double ckpt = time_calls(tracer, "clone.checkpoint", 5, [&] {
    fuse::nn::extract_delta(*clone, model).save_file(path);
  });
  std::unique_ptr<fuse::nn::Module> back;
  const double rehy = time_calls(tracer, "clone.rehydrate", 5, [&] {
    back = fuse::nn::rehydrate_from_delta(
        model, fuse::nn::ParamDelta::load_file(path));
  });
  const double delta_mb =
      static_cast<double>(std::filesystem::file_size(path)) / 1e6;
  std::filesystem::remove(path);
  // A resident clone pins its parameters and their gradients.
  const double resident_mb =
      static_cast<double>(2 * clone->num_params() * sizeof(float)) / 1e6;
  out.push_back({"clone.checkpoint_ms", ckpt * 1e3, "ms", kMovesClone});
  out.push_back({"clone.rehydrate_ms", rehy * 1e3, "ms", kMovesClone});
  out.push_back({"clone.delta_mb", delta_mb, "MB", kMovesClone});
  out.push_back({"clone.resident_mb", resident_mb, "MB", kMovesClone});
}

}  // namespace

std::vector<LayerMetric> replay_layers(const Workload& w, std::uint64_t seed,
                                       Tracer& tracer,
                                       const std::string& scratch_dir) {
  std::vector<LayerMetric> out;
  const auto windows = sample_windows(w, 256);
  replay_dsp(w, seed, tracer, out);
  replay_featurize(w, tracer, windows, out);
  replay_nn(w, tracer, windows, out);
  replay_adapt_and_clone(w, tracer, windows, scratch_dir, out);
  return out;
}

}  // namespace perfbench
