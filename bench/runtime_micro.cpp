// Microbenchmarks backing the paper's "fast, low computational
// requirements, real-time edge" claims (Sections 1 and 5): every stage of
// the FUSE pipeline is timed with google-benchmark, from the radar DSP
// kernels to single-frame CNN inference.
//
// The radar emits frames at 10 Hz, so any stage under 100 ms sustains
// real time; the numbers here are orders of magnitude below that.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "core/pipeline.h"
#include "data/builder.h"
#include "data/featurize.h"
#include "data/fusion.h"
#include "dsp/cfar.h"
#include "dsp/fft.h"
#include "dsp/plan.h"
#include "human/movements.h"
#include "human/surface.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "nn/registry.h"
#include "radar/fast_model.h"
#include "radar/processing.h"
#include "radar/simulator.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "util/isa.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using fuse::dsp::cfloat;

// ------------------------------------------------------------------ DSP --

void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  fuse::util::Rng rng(1);
  std::vector<cfloat> base(n);
  for (auto& x : base)
    x = {rng.uniformf(-1, 1), rng.uniformf(-1, 1)};
  for (auto _ : state) {
    auto v = base;
    fuse::dsp::fft_inplace(v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(64)->Arg(256)->Arg(1024);

void BM_Cfar2d(benchmark::State& state) {
  fuse::util::Rng rng(2);
  const std::size_t nr = 256, nd = 64;
  std::vector<float> map(nr * nd);
  for (auto& v : map)
    v = static_cast<float>(-std::log(1.0 - rng.uniform()));
  map[100 * nd + 30] = 500.0f;
  fuse::dsp::CfarConfig cfg;
  cfg.mode_2d = fuse::dsp::Cfar2dMode::kDopplerAxis;
  cfg.local_max_2d = fuse::dsp::CfarLocalMax::kDoppler;
  for (auto _ : state) {
    auto dets = fuse::dsp::ca_cfar_2d(map, nr, nd, cfg);
    benchmark::DoNotOptimize(dets.data());
  }
}
BENCHMARK(BM_Cfar2d);

// ---------------------------------------------------------------- radar --

struct RadarFixture {
  fuse::radar::RadarConfig cfg = fuse::radar::default_iwr1443_config();
  fuse::radar::Scene scene;
  RadarFixture() {
    auto subject = fuse::human::make_subject(1);
    fuse::human::MovementGenerator gen(subject,
                                       fuse::human::Movement::kSquat,
                                       fuse::util::Rng(3));
    const auto pose = gen.pose_at(0.6);
    const auto pose2 = gen.pose_at(0.62);
    fuse::human::SurfaceSamplerConfig scfg;
    scfg.radar_position = {0.0f, 0.0f,
                           static_cast<float>(cfg.radar_height_m)};
    fuse::util::Rng rng(4);
    scene = fuse::human::sample_body_surface(pose, pose2, 0.02f,
                                             subject.body, scfg, rng);
  }
};

void BM_RadarSimulateFrame(benchmark::State& state) {
  RadarFixture fx;
  fuse::util::Rng rng(5);
  for (auto _ : state) {
    auto cube = fuse::radar::simulate_frame(fx.cfg, fx.scene, rng);
    benchmark::DoNotOptimize(&cube);
  }
}
BENCHMARK(BM_RadarSimulateFrame)->Unit(benchmark::kMillisecond);

// Both FFT passes through a reused FrameWorkspace: the served path (no
// per-call allocation), on the dispatched lane variant.
void BM_RadarRangeDoppler(benchmark::State& state) {
  RadarFixture fx;
  fuse::util::Rng rng(6);
  const auto cube = fuse::radar::simulate_frame(fx.cfg, fx.scene, rng);
  const fuse::radar::Processor proc(fx.cfg);
  fuse::radar::FrameWorkspace ws;
  for (auto _ : state) {
    const auto& rd = proc.range_doppler(cube, ws);
    benchmark::DoNotOptimize(rd.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(fuse::dsp::dispatched_lane_variant().name);
}
BENCHMARK(BM_RadarRangeDoppler)->Unit(benchmark::kMillisecond);

// The compat API: a fresh workspace and fresh outputs per call.
void BM_RadarProcessCube(benchmark::State& state) {
  RadarFixture fx;
  fuse::util::Rng rng(6);
  const auto cube = fuse::radar::simulate_frame(fx.cfg, fx.scene, rng);
  const fuse::radar::Processor proc(fx.cfg);
  for (auto _ : state) {
    auto frame = proc.process(cube);
    benchmark::DoNotOptimize(&frame);
  }
}
BENCHMARK(BM_RadarProcessCube)->Unit(benchmark::kMillisecond);

void BM_FastPointCloudModel(benchmark::State& state) {
  RadarFixture fx;
  const fuse::radar::FastPointCloudModel model(fx.cfg);
  fuse::util::Rng rng(7);
  for (auto _ : state) {
    auto cloud = model.generate(fx.scene, rng);
    benchmark::DoNotOptimize(&cloud);
  }
}
BENCHMARK(BM_FastPointCloudModel)->Unit(benchmark::kMicrosecond);

void BM_SurfaceSampling(benchmark::State& state) {
  auto subject = fuse::human::make_subject(0);
  fuse::human::MovementGenerator gen(subject, fuse::human::Movement::kSquat,
                                     fuse::util::Rng(8));
  const auto pose = gen.pose_at(0.5);
  const auto pose2 = gen.pose_at(0.52);
  fuse::human::SurfaceSamplerConfig scfg;
  fuse::util::Rng rng(9);
  for (auto _ : state) {
    auto scene = fuse::human::sample_body_surface(pose, pose2, 0.02f,
                                                  subject.body, scfg, rng);
    benchmark::DoNotOptimize(scene.data());
  }
}
BENCHMARK(BM_SurfaceSampling)->Unit(benchmark::kMicrosecond);

// ----------------------------------------------------------- featurizer --

struct DataFixture {
  fuse::data::Dataset dataset;
  std::unique_ptr<fuse::data::FusedDataset> fused;
  fuse::data::Featurizer feat;
  DataFixture() {
    fuse::data::BuilderConfig cfg;
    cfg.frames_per_sequence = 20;
    dataset = fuse::data::build_dataset(cfg);
    fused = std::make_unique<fuse::data::FusedDataset>(dataset, 1);
    fuse::data::IndexSet all(dataset.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    feat.fit(dataset, all);
  }
};

void BM_FeaturizeFusedSample(benchmark::State& state) {
  DataFixture fx;
  for (auto _ : state) {
    auto x = fx.feat.make_inputs(*fx.fused, {10});
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_FeaturizeFusedSample)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------------------- NN --

// Conv forward (implicit GEMM), the serving hot path; the batch-wide
// weight reuse and register tiling must show up from batch 8 on.  Conv
// shape = the model's second (wider) layer.
void BM_ConvForward(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  fuse::util::Rng rng(9);
  fuse::nn::Conv2d conv(16, 32, 3, 1, rng);
  fuse::tensor::Tensor x({batch, 16, 8, 8});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = rng.uniformf(-1, 1);
  for (auto _ : state) {
    auto y = conv.infer(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ConvForward)
    ->Arg(1)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMicrosecond);

// conv2's backward (dW, db and dx) after one forward at the same batch; the
// gradients accumulate across iterations, as over training steps.
void BM_ConvBackward(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  fuse::util::Rng rng(9);
  fuse::nn::Conv2d conv(16, 32, 3, 1, rng);
  fuse::tensor::Tensor x({batch, 16, 8, 8});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = rng.uniformf(-1, 1);
  fuse::tensor::Tensor dy = conv.forward(x);
  for (std::size_t i = 0; i < dy.numel(); ++i) dy[i] = rng.uniformf(-1, 1);
  for (auto _ : state) {
    auto dx = conv.backward(dy);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();  // the gradients accumulate in the layer
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ConvBackward)->Arg(16)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_CnnInference(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  fuse::util::Rng rng(10);
  const auto model = fuse::nn::build_model("mars_cnn", {.seed = 10});
  fuse::tensor::Tensor x({batch, 5, 8, 8});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = rng.uniformf(-1, 1);
  for (auto _ : state) {
    auto y = model->infer(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_CnnInference)
    ->Arg(1)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_CnnTrainStep(benchmark::State& state) {
  fuse::util::Rng rng(11);
  const auto model = fuse::nn::build_model("mars_cnn", {.seed = 11});
  fuse::nn::Adam adam(1e-3f);
  fuse::tensor::Tensor x({128, 5, 8, 8});
  fuse::tensor::Tensor t({128, 57});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = rng.uniformf(-1, 1);
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = rng.uniformf(-1, 1);
  for (auto _ : state) {
    auto y = model->forward(x);
    fuse::nn::Tensor dy;
    (void)fuse::nn::l1_loss(y, t, &dy);
    model->zero_grad();
    model->backward(dy);
    adam.step(model->params(), model->grads());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          128);
}
BENCHMARK(BM_CnnTrainStep)->Unit(benchmark::kMillisecond);

// 512^3 NN through the kernel variant of `isa`.
void gemm_512(benchmark::State& state, fuse::util::Isa isa) {
  fuse::util::Rng rng(12);
  fuse::tensor::Tensor a({512, 512}), b({512, 512}), c({512, 512});
  for (std::size_t i = 0; i < a.numel(); ++i) {
    a[i] = rng.uniformf(-1, 1);
    b[i] = rng.uniformf(-1, 1);
  }
  for (auto _ : state) {
    fuse::tensor::gemm(fuse::tensor::Trans::kNo, fuse::tensor::Trans::kNo,
                       1.0f, a, b, 0.0f, c, isa);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * 512 * 512 * 512 * 1e-9,
      benchmark::Counter::kIsRate);
  state.SetLabel(fuse::util::isa_name(isa));
}

// BM_Gemm512 runs the dispatched variant (labelled); main() adds one
// BM_Gemm512/<variant> row per host variant.  Real time: the GEMM runs on
// the pool, so the calling thread's CPU time would inflate a kIsRate
// counter.
void BM_Gemm512(benchmark::State& state) {
  gemm_512(state, fuse::util::dispatched_isa());
}
BENCHMARK(BM_Gemm512)->Unit(benchmark::kMillisecond)->UseRealTime();

// The fc1 shape, x [M, 2048] · Wᵀ with W [512, 2048] (M = 1 is the batch-1
// serving path), through the kernel variant of `isa`.
void gemm_nt_fc1(benchmark::State& state, fuse::util::Isa isa) {
  constexpr std::size_t k = 2048, n = 512;
  const auto m = static_cast<std::size_t>(state.range(0));
  fuse::util::Rng rng(13);
  fuse::tensor::Tensor x({m, k}), w({n, k}), y({m, n});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = rng.uniformf(-1, 1);
  for (std::size_t i = 0; i < w.numel(); ++i) w[i] = rng.uniformf(-1, 1);
  for (auto _ : state) {
    fuse::tensor::gemm(fuse::tensor::Trans::kNo, fuse::tensor::Trans::kYes,
                       1.0f, x, w, 0.0f, y, isa);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * m * k * n * 1e-9,
      benchmark::Counter::kIsRate);
  state.SetLabel(fuse::util::isa_name(isa));
}

// BM_GemmNt/<M> runs the dispatched variant (labelled); main() adds one
// BM_GemmNt/<variant>/1 row per host variant.  Real time: outside a
// serving pass the kernel splits its columns across the pool, so the
// calling thread's CPU time would inflate a kIsRate counter.
void BM_GemmNt(benchmark::State& state) {
  gemm_nt_fc1(state, fuse::util::dispatched_isa());
}
BENCHMARK(BM_GemmNt)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// ---------------------------------------------------------------- serve --

// A trained pipeline shared by the serving rows below.
fuse::core::FusePipeline& trained_pipeline() {
  static fuse::core::FusePipeline* pipeline = [] {
    fuse::core::PipelineConfig cfg;
    cfg.data.frames_per_sequence = 20;
    cfg.train.epochs = 1;
    auto* p = new fuse::core::FusePipeline(cfg);
    p->prepare_data();
    p->train_baseline();
    return p;
  }();
  return *pipeline;
}

// One synchronous Server::run_once() over 4 shards with 16 open sessions
// and nothing queued: the pass a serving loop spins through between radar
// frames.  Driven from a 1-worker pool, like a synchronous serving thread.
void BM_ServerIdlePass(benchmark::State& state) {
  auto& pl = trained_pipeline();
  fuse::serve::ServeConfig cfg;
  cfg.num_shards = 4;
  fuse::serve::Server server(&pl.predictor(), &pl.model(), cfg);
  for (int s = 0; s < 16; ++s) server.open_session();
  fuse::util::ThreadPool serving_thread(1);
  serving_thread.submit([&] {
    for (auto _ : state) benchmark::DoNotOptimize(server.run_once());
  });
  serving_thread.wait_idle();
}
BENCHMARK(BM_ServerIdlePass)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------------- pipeline --

void BM_StreamingPoseEstimate(benchmark::State& state) {
  // End-to-end online step: push one radar frame, get a pose.  This is the
  // number that must stay under the 100 ms frame budget.
  auto& pipeline = trained_pipeline();
  const auto& frame = pipeline.dataset().frames[5];
  for (auto _ : state) {
    auto pose = pipeline.push_frame(frame.cloud);
    benchmark::DoNotOptimize(&pose);
  }
}
BENCHMARK(BM_StreamingPoseEstimate)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  for (const fuse::util::Isa isa : fuse::util::host_isas()) {
    const std::string name = fuse::util::isa_name(isa);
    benchmark::RegisterBenchmark(("BM_GemmNt/" + name).c_str(), gemm_nt_fc1,
                                 isa)
        ->Arg(1)
        ->Unit(benchmark::kMicrosecond)
        ->UseRealTime();
    benchmark::RegisterBenchmark(("BM_Gemm512/" + name).c_str(), gemm_512,
                                 isa)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
