// Cross-module integration tests: the flows a downstream user actually
// runs, exercised end to end — train/serialize/reload, full-physics radar
// frames through the learned pipeline, and the tracker on streamed
// estimates.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/pipeline.h"
#include "core/tracking.h"
#include "human/surface.h"
#include "nn/registry.h"
#include "radar/processing.h"
#include "radar/simulator.h"
#include "util/rng.h"

namespace {

fuse::core::FusePipeline& trained_pipeline() {
  static fuse::core::FusePipeline* pipeline = [] {
    fuse::core::PipelineConfig cfg;
    cfg.data.frames_per_sequence = 30;
    cfg.fusion_m = 1;
    cfg.train.epochs = 4;
    auto* p = new fuse::core::FusePipeline(cfg);
    p->prepare_data();
    p->train_baseline();
    return p;
  }();
  return *pipeline;
}

TEST(Integration, TrainedModelSerializationRoundTrip) {
  auto& pipeline = trained_pipeline();
  const std::string path = "/tmp/fuse_integration_model.bin";
  pipeline.model().save_file(path);

  fuse::nn::ModelConfig mcfg;
  mcfg.in_channels = fuse::data::kChannelsPerFrame;
  mcfg.seed = 1;
  const auto reloaded = fuse::nn::build_model("mars_cnn", mcfg);
  reloaded->load_file(path);

  // Identical predictions on a real batch.
  const fuse::data::IndexSet batch = {0, 10, 20};
  const auto x = pipeline.featurizer().make_inputs(pipeline.fused(), batch);
  const auto y1 = pipeline.model().infer(x);
  const auto y2 = reloaded->infer(x);
  for (std::size_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], y2[i]);
  std::remove(path.c_str());
}

TEST(Integration, FullPhysicsFrameThroughLearnedPipeline) {
  // Generate a frame with the *full* IF-signal simulator (not the fast
  // model the pipeline was trained on) and estimate a pose from it: the
  // calibration contract says the two radar models are interchangeable.
  auto& pipeline = trained_pipeline();
  auto cfg = fuse::radar::default_iwr1443_config();
  cfg.samples_per_chirp = 128;
  cfg.chirps_per_frame = 32;

  const auto subject = fuse::human::make_subject(1);
  fuse::human::MovementGenerator gen(subject, fuse::human::Movement::kSquat,
                                     fuse::util::Rng(11));
  const double t = 0.3 * subject.style.period_s;
  const auto pose_gt = gen.pose_at(t);
  const auto pose_next = gen.pose_at(t + 0.02);
  fuse::human::SurfaceSamplerConfig scfg;
  scfg.radar_position = {0.0f, 0.0f, static_cast<float>(cfg.radar_height_m)};
  fuse::util::Rng rng(12);
  const auto scene = fuse::human::sample_body_surface(
      pose_gt, pose_next, 0.02f, subject.body, scfg, rng);

  const auto cube = fuse::radar::simulate_frame(cfg, scene, rng);
  const auto frame = fuse::radar::Processor(cfg).process(cube);
  ASSERT_FALSE(frame.cloud.empty());

  const auto pose = pipeline.predict_window({frame.cloud});
  // The estimate must land on the subject, not somewhere wild.
  EXPECT_NEAR(pose[fuse::human::Joint::kSpineBase].y,
              pose_gt[fuse::human::Joint::kSpineBase].y, 0.8f);
  EXPECT_GT(pose[fuse::human::Joint::kHead].z,
            pose[fuse::human::Joint::kSpineBase].z);
}

TEST(Integration, TrackedStreamIsSmootherThanRaw) {
  auto& pipeline = trained_pipeline();
  fuse::core::PoseTracker tracker;

  // Stream one test sequence; compare frame-to-frame jitter of raw vs
  // tracked head positions.
  double raw_jitter = 0.0, tracked_jitter = 0.0;
  fuse::util::Vec3 prev_raw, prev_tracked;
  bool have_prev = false;
  std::size_t n = 0;
  for (std::size_t k = 0; k < 30; ++k) {
    const auto& f = pipeline.dataset().frames[k];
    const auto raw = pipeline.push_frame(f.cloud);
    const auto tracked = tracker.update(raw);
    const auto rh = raw[fuse::human::Joint::kHead];
    const auto th = tracked[fuse::human::Joint::kHead];
    if (have_prev) {
      raw_jitter += (rh - prev_raw).norm();
      tracked_jitter += (th - prev_tracked).norm();
      ++n;
    }
    prev_raw = rh;
    prev_tracked = th;
    have_prev = true;
  }
  ASSERT_GT(n, 0u);
  EXPECT_LT(tracked_jitter, raw_jitter);
}

TEST(Integration, MetaTrainingRunsOnPipelineData) {
  // Minimal meta-training pass through the facade's data products.
  auto& pipeline = trained_pipeline();
  fuse::nn::ModelConfig model_cfg;
  model_cfg.in_channels = fuse::data::kChannelsPerFrame;
  model_cfg.seed = 13;
  const auto model = fuse::nn::build_model("mars_cnn", model_cfg);
  fuse::core::MetaConfig mcfg;
  mcfg.iterations = 3;
  mcfg.tasks_per_iteration = 2;
  mcfg.support_size = 16;
  mcfg.query_size = 16;
  fuse::core::MetaTrainer meta(model.get(), mcfg);
  const auto hist = meta.run(pipeline.fused(), pipeline.featurizer(),
                             pipeline.split().train);
  EXPECT_EQ(hist.query_loss.size(), 3u);
  for (const float q : hist.query_loss) {
    EXPECT_GT(q, 0.0f);
    EXPECT_TRUE(std::isfinite(q));
  }
}

}  // namespace
