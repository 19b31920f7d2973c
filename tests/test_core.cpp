// Tests for the FUSE core: supervised training, meta-training
// (Algorithm 1), fine-tuning curves, metrics, and the pipeline facade.
// These use a miniature dataset so the whole file runs in seconds.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/finetune.h"
#include "core/meta.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/trainer.h"
#include "data/builder.h"
#include "data/featurize.h"
#include "data/fusion.h"
#include "data/split.h"
#include "nn/registry.h"
#include "nn/sequential.h"

namespace {

using fuse::data::FusedDataset;
using fuse::data::IndexSet;

struct MiniWorld {
  fuse::data::Dataset dataset;
  std::unique_ptr<FusedDataset> fused;
  fuse::data::Featurizer feat;
  fuse::data::ChronoSplit split;

  explicit MiniWorld(std::size_t frames_per_seq = 40, std::size_t m = 1) {
    fuse::data::BuilderConfig cfg;
    cfg.frames_per_sequence = frames_per_seq;
    dataset = fuse::data::build_dataset(cfg);
    fused = std::make_unique<FusedDataset>(dataset, m);
    split = fuse::data::chrono_split(dataset);
    feat.fit(dataset, split.train);
  }

  fuse::nn::Sequential make_model(std::uint64_t seed = 1) const {
    // Input is 8x8x5 regardless of the fusion window (points are pooled).
    return dynamic_cast<const fuse::nn::Sequential&>(
        *fuse::nn::build_model("mars_cnn", {.seed = seed}));
  }
};

const MiniWorld& world() {
  static const MiniWorld w;
  return w;
}

// ---------------------------------------------------------------- metrics --

TEST(Metrics, EvaluateUntrainedModelIsPoorButFinite) {
  auto model = world().make_model();
  const auto mae = fuse::core::evaluate(model, *world().fused, world().feat,
                                        world().split.test);
  EXPECT_GT(mae.average(), 1.0);   // untrained: tens of cm
  EXPECT_LT(mae.average(), 500.0); // but not absurd
}

TEST(Metrics, EvaluateEmptySetIsZero) {
  auto model = world().make_model();
  const auto mae =
      fuse::core::evaluate(model, *world().fused, world().feat, {});
  EXPECT_EQ(mae.average(), 0.0);
}

TEST(Metrics, PerJointMaeHasOneEntryPerJoint) {
  auto model = world().make_model();
  IndexSet idx = {0, 1, 2, 3};
  const auto per_joint = fuse::core::per_joint_mae_cm(
      model, *world().fused, world().feat, idx);
  EXPECT_EQ(per_joint.size(), fuse::human::kNumJoints);
  for (const auto v : per_joint) EXPECT_GT(v, 0.0);
}

TEST(Metrics, IntersectionEpochFindsFirstCrossing) {
  const std::vector<double> baseline = {10, 8, 6, 4, 3};
  const std::vector<double> fuse_curve = {12, 6, 5, 5, 5};
  // First epoch where baseline <= fuse: epoch 2 (6 <= 5 is false; 6 vs 5 ->
  // no; 4 <= 5 -> epoch 3).
  EXPECT_EQ(fuse::core::intersection_epoch(baseline, fuse_curve), 3u);
  EXPECT_EQ(fuse::core::intersection_epoch({5, 5}, {1, 1}), 2u);  // never
}

// ---------------------------------------------------------------- trainer --

TEST(Trainer, LossDecreasesOverEpochs) {
  auto model = world().make_model(2);
  fuse::core::TrainConfig cfg;
  cfg.epochs = 6;
  cfg.batch_size = 64;
  fuse::core::Trainer trainer(&model, cfg);
  const auto hist =
      trainer.fit(*world().fused, world().feat, world().split.train);
  ASSERT_EQ(hist.train_loss.size(), 6u);
  EXPECT_LT(hist.train_loss.back(), 0.8f * hist.train_loss.front());
}

TEST(Trainer, TrainingImprovesHeldOutMae) {
  auto model = world().make_model(3);
  const auto before = fuse::core::evaluate(model, *world().fused,
                                           world().feat, world().split.test);
  fuse::core::TrainConfig cfg;
  cfg.epochs = 8;
  fuse::core::Trainer trainer(&model, cfg);
  trainer.fit(*world().fused, world().feat, world().split.train);
  const auto after = fuse::core::evaluate(model, *world().fused, world().feat,
                                          world().split.test);
  EXPECT_LT(after.average(), 0.6 * before.average());
}

TEST(Trainer, PerEpochEvalRecorded) {
  auto model = world().make_model(4);
  fuse::core::TrainConfig cfg;
  cfg.epochs = 3;
  cfg.eval_indices = world().split.val;
  fuse::core::Trainer trainer(&model, cfg);
  const auto hist =
      trainer.fit(*world().fused, world().feat, world().split.train);
  EXPECT_EQ(hist.eval_mae_cm.size(), 3u);
}

TEST(Trainer, DeterministicForEqualSeeds) {
  auto run = [&] {
    auto model = world().make_model(5);
    fuse::core::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.seed = 77;
    fuse::core::Trainer trainer(&model, cfg);
    return trainer.fit(*world().fused, world().feat, world().split.train)
        .train_loss;
  };
  EXPECT_EQ(run(), run());
}

// ------------------------------------------------------------------ meta --

TEST(Meta, QueryLossDecreasesOverIterations) {
  auto model = world().make_model(6);
  fuse::core::MetaConfig cfg;
  cfg.iterations = 12;
  cfg.tasks_per_iteration = 2;
  cfg.support_size = 32;
  cfg.query_size = 32;
  fuse::core::MetaTrainer meta(&model, cfg);
  const auto hist = meta.run(*world().fused, world().feat,
                             world().split.train);
  ASSERT_EQ(hist.query_loss.size(), 12u);
  // Compare mean of first and last thirds (noisy sequence).
  const auto third = hist.query_loss.size() / 3;
  double early = 0.0, late = 0.0;
  for (std::size_t i = 0; i < third; ++i) {
    early += hist.query_loss[i];
    late += hist.query_loss[hist.query_loss.size() - 1 - i];
  }
  EXPECT_LT(late, early);
}

TEST(Meta, TaskAdaptReducesSupportLossAndPopulatesGrads) {
  auto model = world().make_model(7);
  fuse::core::MetaConfig cfg;
  cfg.inner_steps = 2;
  fuse::core::MetaTrainer meta(&model, cfg);

  IndexSet support, query;
  for (std::size_t i = 0; i < 32; ++i) {
    support.push_back(world().split.train[i]);
    query.push_back(world().split.train[100 + i]);
  }
  fuse::nn::Sequential clone = model;
  const float qloss = meta.task_adapt_and_query(clone, *world().fused,
                                                world().feat, support, query);
  EXPECT_GT(qloss, 0.0f);
  EXPECT_GT(fuse::nn::grad_norm(clone.grads()), 0.0f);
  // The clone's parameters moved away from the initial model's.
  const auto p0 = model.params();
  const auto p1 = clone.params();
  double diff = 0.0;
  for (std::size_t i = 0; i < p0.size(); ++i)
    diff += (*p1[i] - *p0[i]).squared_norm();
  EXPECT_GT(diff, 0.0);
}

TEST(Meta, MetaTrainedModelAdaptsFasterThanFresh) {
  // The core FUSE property, miniaturised: after meta-training, k adaptation
  // steps on an unseen movement improve MAE more than the same k steps on a
  // freshly initialised model.
  const auto split = fuse::data::leave_out_split(world().dataset);
  auto meta_model = world().make_model(8);
  fuse::core::MetaConfig mcfg;
  mcfg.iterations = 25;
  mcfg.tasks_per_iteration = 2;
  mcfg.support_size = 48;
  mcfg.query_size = 48;
  fuse::core::MetaTrainer meta(&meta_model, mcfg);
  meta.run(*world().fused, world().feat, split.train);

  auto fresh_model = world().make_model(9);

  const auto [ft, ev] = fuse::data::finetune_eval_split(split.test, 20);
  fuse::core::FineTuneConfig fcfg;
  fcfg.epochs = 3;
  fcfg.batch_size = 20;

  auto meta_copy = meta_model;
  const auto meta_curve = fuse::core::fine_tune(
      meta_copy, *world().fused, world().feat, ft, ev, split.train, fcfg);
  auto fresh_copy = fresh_model;
  const auto fresh_curve = fuse::core::fine_tune(
      fresh_copy, *world().fused, world().feat, ft, ev, split.train, fcfg);

  // After 3 epochs the meta-trained model is better on the new data.
  EXPECT_LT(meta_curve.new_data_cm.back(), fresh_curve.new_data_cm.back());
}

// -------------------------------------------------------------- finetune --

TEST(FineTune, CurveHasEpochPlusOneEntriesAndImproves) {
  auto model = world().make_model(10);
  // Light pre-training so fine-tuning starts from something sensible.
  fuse::core::TrainConfig tcfg;
  tcfg.epochs = 3;
  fuse::core::Trainer trainer(&model, tcfg);
  trainer.fit(*world().fused, world().feat, world().split.train);

  const auto split = fuse::data::leave_out_split(world().dataset);
  const auto [ft, ev] = fuse::data::finetune_eval_split(split.test, 20);
  fuse::core::FineTuneConfig fcfg;
  fcfg.epochs = 5;
  const auto curve = fuse::core::fine_tune(model, *world().fused,
                                           world().feat, ft, ev,
                                           world().split.val, fcfg);
  ASSERT_EQ(curve.new_data_cm.size(), 6u);
  ASSERT_EQ(curve.original_cm.size(), 6u);
  EXPECT_LT(curve.new_data_cm.back(), curve.new_data_cm.front());
}

TEST(FineTune, LastLayerOnlyLeavesBackboneUntouched) {
  auto model = world().make_model(11);
  const auto conv_before = *model.params()[0];
  const auto fc2_before = *model.last_layer_params()[0];

  const auto split = fuse::data::leave_out_split(world().dataset);
  const auto [ft, ev] = fuse::data::finetune_eval_split(split.test, 20);
  fuse::core::FineTuneConfig fcfg;
  fcfg.epochs = 2;
  fcfg.last_layer_only = true;
  fuse::core::fine_tune(model, *world().fused, world().feat, ft, ev,
                        world().split.val, fcfg);

  const auto& conv_after = *model.params()[0];
  const auto& fc2_after = *model.last_layer_params()[0];
  EXPECT_EQ((conv_after - conv_before).abs_sum(), 0.0f);
  EXPECT_GT((fc2_after - fc2_before).abs_sum(), 0.0f);
}

// -------------------------------------------------------------- pipeline --

TEST(Pipeline, EndToEndTinyRun) {
  fuse::core::PipelineConfig cfg;
  cfg.data.frames_per_sequence = 20;
  cfg.fusion_m = 1;
  cfg.train.epochs = 2;
  fuse::core::FusePipeline pipeline(cfg);
  pipeline.prepare_data();
  EXPECT_EQ(pipeline.dataset().size(), 800u);
  const auto hist = pipeline.train_baseline();
  EXPECT_EQ(hist.train_loss.size(), 2u);
  const auto mae = pipeline.evaluate_test();
  EXPECT_GT(mae.average(), 0.0);
  EXPECT_LT(mae.average(), 200.0);
}

TEST(Pipeline, RequiresPrepareBeforeTraining) {
  fuse::core::PipelineConfig cfg;
  fuse::core::FusePipeline pipeline(cfg);
  EXPECT_THROW(pipeline.train_baseline(), std::logic_error);
  EXPECT_THROW(pipeline.evaluate_test(), std::logic_error);
}

TEST(Pipeline, StreamingInferenceProducesPlausiblePoses) {
  fuse::core::PipelineConfig cfg;
  cfg.data.frames_per_sequence = 20;
  cfg.train.epochs = 3;
  fuse::core::FusePipeline pipeline(cfg);
  pipeline.prepare_data();
  pipeline.train_baseline();

  for (std::size_t k = 0; k < 10; ++k) {
    const auto& frame = pipeline.dataset().frames[k];
    const auto pose = pipeline.push_frame(frame.cloud);
    // Head above spine base, both within the room.
    EXPECT_GT(pose[fuse::human::Joint::kHead].z,
              pose[fuse::human::Joint::kSpineBase].z);
    EXPECT_GT(pose[fuse::human::Joint::kSpineBase].y, 0.5f);
    EXPECT_LT(pose[fuse::human::Joint::kSpineBase].y, 5.0f);
  }
}

TEST(Pipeline, PredictWindowRejectsEmpty) {
  fuse::core::PipelineConfig cfg;
  cfg.data.frames_per_sequence = 20;
  fuse::core::FusePipeline pipeline(cfg);
  pipeline.prepare_data();
  EXPECT_THROW(pipeline.predict_window({}), std::invalid_argument);
}

}  // namespace
