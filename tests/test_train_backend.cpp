// Tests for the GEMM training path and the task-parallel FOMAML outer
// loop: Conv2d gradients against the per-sample reference backward
// (including ragged GEMM tile tails and pad > 0), finite-difference
// gradcheck, the clone/workspace lifetime contract, and fixed-seed
// MetaTrainer determinism across worker counts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <tuple>
#include <vector>

#include "core/meta.h"
#include "data/builder.h"
#include "data/featurize.h"
#include "data/fusion.h"
#include "data/split.h"
#include "nn/gradcheck.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/registry.h"
#include "nn/sequential.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using fuse::nn::Tensor;

Tensor random_tensor(fuse::tensor::Shape shape, fuse::util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = rng.uniformf(-1, 1);
  return t;
}

// |a - b| <= 1e-5 * max(1, |b|): the ISSUE-level agreement bound, scaled
// for the handful of large-magnitude accumulations in weight gradients.
void assert_grad_close(const Tensor& got, const Tensor& want,
                       const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::size_t i = 0; i < got.numel(); ++i) {
    const float tol = 1e-5f * std::max(1.0f, std::abs(want[i]));
    ASSERT_NEAR(got[i], want[i], tol) << what << " element " << i;
  }
}

// ------------------------------------------ gradients vs the reference --

TEST(TrainBackend, Conv2dBackwardMatchesReference) {
  // Shapes chosen to hit the GEMM tile tails (odd channel/filter counts,
  // odd spatial sizes) and pad in {0, 1, 2}.
  for (const auto& [cin, cout, hw, pad] :
       {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>
            {2, 3, 5, 1},
        {3, 5, 7, 2}, {1, 1, 8, 0}, {7, 9, 11, 1}, {2, 34, 6, 1}}) {
    SCOPED_TRACE("cin=" + std::to_string(cin) + " cout=" +
                 std::to_string(cout) + " hw=" + std::to_string(hw) +
                 " pad=" + std::to_string(pad));
    fuse::util::Rng rng(31);
    fuse::nn::Conv2d conv(cin, cout, 3, pad, rng);

    for (const std::size_t batch : {1u, 5u}) {
      fuse::util::Rng rng_x(97 + batch);
      const Tensor x = random_tensor({batch, cin, hw, hw}, rng_x);
      const Tensor y = conv.forward(x);
      assert_grad_close(y, fuse::nn::conv2d_reference_forward(conv, x),
                        "forward");

      const Tensor dy = random_tensor(y.shape(), rng_x);
      conv.zero_grad();
      const Tensor dx = conv.backward(dy);
      const auto ref = fuse::nn::conv2d_reference_backward(conv, x, dy);
      assert_grad_close(dx, ref.dx, "dx");
      assert_grad_close(*conv.grads()[0], ref.dw, "dW");
      assert_grad_close(*conv.grads()[1], ref.db, "db");
    }
  }
}

TEST(TrainBackend, FullModelBackwardMatchesReferenceComposition) {
  // mars_cnn's backward against the same layers run child by child, with
  // each Conv2d's forward and backward replaced by the reference.
  fuse::nn::ModelConfig cfg;
  cfg.seed = 5;
  const auto model = fuse::nn::build_model("mars_cnn", cfg);
  const auto twin = fuse::nn::build_model("mars_cnn", cfg);
  auto& seq = dynamic_cast<fuse::nn::Sequential&>(*twin);

  fuse::util::Rng rng(77);
  const Tensor x = random_tensor({6, 5, 8, 8}, rng);
  const Tensor target = random_tensor({6, 57}, rng);

  std::vector<Tensor> inputs;  // each child's input, for the backward
  Tensor ref = x;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    inputs.push_back(ref);
    const auto* conv = dynamic_cast<const fuse::nn::Conv2d*>(&seq.child(i));
    ref = conv ? fuse::nn::conv2d_reference_forward(*conv, ref)
               : seq.child(i).forward(ref);
  }
  const Tensor y = model->forward(x);
  assert_grad_close(y, ref, "forward");

  Tensor dy, dref;
  (void)fuse::nn::l1_loss(y, target, &dy);
  (void)fuse::nn::l1_loss(ref, target, &dref);
  model->zero_grad();
  twin->zero_grad();
  model->backward(dy);
  for (std::size_t i = seq.size(); i-- > 0;) {
    auto* conv = dynamic_cast<fuse::nn::Conv2d*>(&seq.child(i));
    if (!conv) {
      dref = seq.child(i).backward(dref);
      continue;
    }
    auto g = fuse::nn::conv2d_reference_backward(*conv, inputs[i], dref);
    *conv->grads()[0] = std::move(g.dw);
    *conv->grads()[1] = std::move(g.db);
    dref = std::move(g.dx);
  }
  const auto got = model->grads();
  const auto want = twin->grads();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    assert_grad_close(*got[i], *want[i], "grad tensor");
}

// --------------------------------------------------------- gradcheck --

TEST(TrainBackend, GradCheckConv2d) {
  for (const std::size_t pad : {0u, 1u}) {
    SCOPED_TRACE("pad=" + std::to_string(pad));
    fuse::util::Rng rng(21 + pad);
    fuse::nn::Conv2d conv(2, 3, 3, pad, rng);
    Tensor x = random_tensor({2, 2, 5, 5}, rng);
    const std::size_t oh = 5 + 2 * pad - 2;
    const Tensor target = random_tensor({2, 3, oh, oh}, rng);

    auto loss_fn = [&] {
      const Tensor y = conv.forward(x);
      return fuse::nn::l2_loss(y, target, nullptr);
    };
    const Tensor y = conv.forward(x);
    Tensor dy;
    (void)fuse::nn::l2_loss(y, target, &dy);
    conv.zero_grad();
    const Tensor dx = conv.backward(dy);

    // fraction_within: float32 central differences leave an outlier or two
    // at small-gradient coordinates (the reference backward scores
    // identically here); Conv2dBackwardMatchesReference above pins the
    // agreement with the reference to 1e-5.
    EXPECT_GE(fuse::nn::check_gradient(loss_fn, conv.weight(),
                                       *conv.grads()[0])
                  .fraction_within(2e-2f),
              0.95f)
        << "weight gradient";
    EXPECT_TRUE(
        fuse::nn::check_gradient(loss_fn, conv.bias(), *conv.grads()[1])
            .ok())
        << "bias gradient";
    EXPECT_GE(fuse::nn::check_gradient(loss_fn, x, dx).fraction_within(2e-2f),
              0.95f)
        << "input gradient";
  }
}

// -------------------------------------------- clone/workspace contract --

TEST(TrainBackend, CloneMustForwardBeforeBackward) {
  fuse::util::Rng rng(3);
  fuse::nn::Conv2d conv(2, 4, 3, 1, rng);
  const Tensor x = random_tensor({2, 2, 6, 6}, rng);
  const Tensor y = conv.forward(x);
  const Tensor dy = random_tensor(y.shape(), rng);
  EXPECT_NO_THROW(conv.backward(dy));

  // Copies drop the forward cache (parameters and gradients only), so
  // backward without a fresh forward must throw, not misread.
  const auto clone = conv.clone();
  EXPECT_THROW(clone->backward(dy), std::logic_error);
  EXPECT_NO_THROW(clone->forward(x));
  EXPECT_NO_THROW(clone->backward(dy));
}

// --------------------------------------------- MetaTrainer determinism --

class MetaDeterminism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fuse::data::BuilderConfig bcfg;
    bcfg.frames_per_sequence = 24;
    bcfg.seed = 11;
    dataset_ = new fuse::data::Dataset(fuse::data::build_dataset(bcfg));
    fused_ = new fuse::data::FusedDataset(*dataset_, 1);
    split_ = new fuse::data::LeaveOutSplit(
        fuse::data::leave_out_split(*dataset_));
    feat_ = new fuse::data::Featurizer();
    feat_->fit(*dataset_, split_->train);
  }
  static void TearDownTestSuite() {
    delete feat_;
    delete split_;
    delete fused_;
    delete dataset_;
  }

  /// One fixed-seed meta-training run on `workers` task workers.
  static std::vector<float> run(std::size_t workers) {
    fuse::nn::ModelConfig mc;
    mc.seed = 23;
    const auto model = fuse::nn::build_model("mars_cnn", mc);
    fuse::core::MetaConfig cfg;
    cfg.iterations = 2;
    cfg.tasks_per_iteration = 4;
    cfg.support_size = 16;
    cfg.query_size = 16;
    cfg.inner_steps = 1;
    cfg.seed = 42;
    fuse::core::MetaTrainer meta(model.get(), cfg);
    fuse::util::ThreadPool pool(workers);
    meta.set_task_pool(&pool);
    // Run under an InlineScope so that, at workers == 1, every nested
    // kernel parallel_for serializes inline — a genuinely single-threaded
    // run, not one whose kernels fan out to the global pool (which would
    // mask chunking-dependent nondeterminism).
    const fuse::util::InlineScope inline_scope;
    return meta.run(*fused_, *feat_, split_->train).query_loss;
  }

  static fuse::data::Dataset* dataset_;
  static fuse::data::FusedDataset* fused_;
  static fuse::data::LeaveOutSplit* split_;
  static fuse::data::Featurizer* feat_;
};

fuse::data::Dataset* MetaDeterminism::dataset_ = nullptr;
fuse::data::FusedDataset* MetaDeterminism::fused_ = nullptr;
fuse::data::LeaveOutSplit* MetaDeterminism::split_ = nullptr;
fuse::data::Featurizer* MetaDeterminism::feat_ = nullptr;

TEST_F(MetaDeterminism, FixedSeedBitReproducibleOnOneWorker) {
  const auto a = run(1);
  const auto b = run(1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "iteration " << i;
}

TEST_F(MetaDeterminism, EightWorkersMatchOneWorker) {
  // Tasks are pre-sampled on one RNG stream and the meta-gradient reduces
  // in task order, so worker count cannot change the result; the 1e-5
  // bound is the acceptance criterion, the design target is bit-equality.
  const auto a = run(1);
  const auto b = run(8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_NEAR(a[i], b[i], 1e-5f) << "iteration " << i;
}

}  // namespace
