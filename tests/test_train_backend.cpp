// Tests for the GEMM training path and the task-parallel FOMAML outer
// loop: Conv2d gradients against the per-sample reference backward
// (including ragged GEMM tile tails and pad > 0) and, bit for bit, against
// the explicit-column path on every ISA variant, finite-difference
// gradcheck, the clone/forward-cache contract, and fixed-seed
// MetaTrainer determinism across worker counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
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
#include "nn/optim.h"
#include "nn/registry.h"
#include "nn/sequential.h"
#include "tensor/ops.h"
#include "util/isa.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// This binary counts its large heap allocations: every operator new of
// 64 KiB or more (a batch-128 activation is 128 KiB to 1 MiB) ticks
// g_large_news.  new[] and the nothrow forms forward here.
std::atomic<std::size_t> g_large_news{0};

// Out of line, so the compiler never pairs a new-expression with free().
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (n >= 64 * 1024) g_large_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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
  fuse::nn::Tape tape;
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
      const Tensor y = conv.forward(x, tape);
      assert_grad_close(y, fuse::nn::conv2d_reference_forward(conv, x),
                        "forward");

      const Tensor dy = random_tensor(y.shape(), rng_x);
      conv.zero_grad();
      const Tensor dx = conv.backward(dy, tape);
      const auto ref = fuse::nn::conv2d_reference_backward(conv, x, dy);
      assert_grad_close(dx, ref.dx, "dx");
      assert_grad_close(*conv.grads()[0], ref.dw, "dW");
      assert_grad_close(*conv.grads()[1], ref.db, "db");
    }
  }
}

TEST(TrainBackend, FullModelBackwardMatchesReferenceComposition) {
  fuse::nn::Tape tape;
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
  std::vector<fuse::nn::Tape> tapes(seq.size());  // each child's forward
  inputs.reserve(seq.size());  // a Linear's backward reads its input there
  Tensor ref = x;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    inputs.push_back(ref);
    const auto* conv = dynamic_cast<const fuse::nn::Conv2d*>(&seq.child(i));
    ref = conv ? fuse::nn::conv2d_reference_forward(*conv, ref)
               : seq.child(i).forward(inputs.back(), tapes[i]);
  }
  const Tensor y = model->forward(x, tape);
  assert_grad_close(y, ref, "forward");

  Tensor dy, dref;
  (void)fuse::nn::l1_loss(y, target, &dy);
  (void)fuse::nn::l1_loss(ref, target, &dref);
  model->zero_grad();
  twin->zero_grad();
  model->backward(dy, tape);
  for (std::size_t i = seq.size(); i-- > 0;) {
    auto* conv = dynamic_cast<fuse::nn::Conv2d*>(&seq.child(i));
    if (!conv) {
      dref = seq.child(i).backward(dref, tapes[i]);
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

// ------------------------------------------- gradients, bit for bit --

struct ColumnGrads {
  Tensor dx, dw, db;
};

// The explicit-column backward, the bit oracle of Conv2d::backward and
// tensor::conv2d_backward: per-sample im2col laid side by side as
// [K, N*hw], dW by one NT GEMM into gw0 with beta 1, db by per-channel
// double sums over (n, p), and dx by a TN GEMM into column gradients
// scattered back with col2im.
ColumnGrads column_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy, std::size_t kernel,
                            std::size_t pad, const Tensor& gw0,
                            const Tensor& gb0, fuse::util::Isa isa) {
  using fuse::tensor::Trans;
  const std::size_t n = x.dim(0), oc_n = dy.dim(1);
  const std::size_t hw = dy.dim(2) * dy.dim(3), nhw = n * hw;
  const std::size_t k = w.dim(1);
  const Tensor col = fuse::tensor::im2col(x, kernel, kernel, 1, pad);
  Tensor colb({k, nhw}), dy2({oc_n, nhw});
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t r = 0; r < k; ++r)
      std::copy_n(col.data() + (img * k + r) * hw, hw,
                  colb.data() + r * nhw + img * hw);
    for (std::size_t oc = 0; oc < oc_n; ++oc)
      std::copy_n(dy.data() + (img * oc_n + oc) * hw, hw,
                  dy2.data() + oc * nhw + img * hw);
  }
  ColumnGrads g{Tensor(), gw0, gb0};
  fuse::tensor::gemm(Trans::kNo, Trans::kYes, 1.0f, dy2, colb, 1.0f, g.dw,
                     isa);
  for (std::size_t oc = 0; oc < oc_n; ++oc) {
    double acc = 0.0;
    for (std::size_t p = 0; p < nhw; ++p) acc += dy2.at(oc, p);
    g.db[oc] += static_cast<float>(acc);
  }
  Tensor dcol({k, nhw});
  fuse::tensor::gemm(Trans::kYes, Trans::kNo, 1.0f, w, dy2, 0.0f, dcol, isa);
  Tensor dcol_n({n, k, hw});
  for (std::size_t img = 0; img < n; ++img)
    for (std::size_t r = 0; r < k; ++r)
      std::copy_n(dcol.data() + r * nhw + img * hw, hw,
                  dcol_n.data() + (img * k + r) * hw);
  g.dx = fuse::tensor::col2im(dcol_n, n, x.dim(1), x.dim(2), x.dim(3), kernel,
                              kernel, 1, pad);
  return g;
}

void expect_same_bits(const Tensor& got, const Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  if (got.numel() == 0) return;  // memcmp of empty storage's nullptr is UB
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.numel() * sizeof(float)),
            0)
      << what;
}

TEST(TrainBackend, Conv2dBackwardIsBitIdenticalToTheColumnPath) {
  fuse::nn::Tape tape;
  // Conv2d::backward runs the dispatched variant; tensor::conv2d_backward
  // is run on each host variant, and both must equal the oracle on each.
  // The model's conv1/conv2 shapes, output channels below every variant's
  // MR (3) and above it (9, 16, 17, 32), pad 0/1/2, spatial sizes whose hw
  // (15, 63, 306) is not a multiple of any NR, and one image longer than
  // the GEMM's 256-deep K-block.  gw and gb start non-zero, so the
  // accumulate-into-gradients step is part of what is compared.
  struct Case {
    std::size_t cin, cout, h, w, pad;
  };
  for (const Case& c : {Case{5, 16, 8, 8, 1}, Case{16, 32, 8, 8, 1},
                        Case{3, 3, 5, 7, 0}, Case{2, 17, 7, 5, 2},
                        Case{1, 9, 17, 18, 1}}) {
    fuse::util::Rng rng(53 + c.cout);
    fuse::nn::Conv2d conv(c.cin, c.cout, 3, c.pad, rng);
    conv.bias() = random_tensor(conv.bias().shape(), rng);
    const Tensor gw0 = random_tensor(conv.weight().shape(), rng);
    const Tensor gb0 = random_tensor(conv.bias().shape(), rng);
    for (const std::size_t batch : {1u, 5u, 17u, 128u}) {
      const std::string what =
          "cin=" + std::to_string(c.cin) + " cout=" + std::to_string(c.cout) +
          " " + std::to_string(c.h) + "x" + std::to_string(c.w) +
          " pad=" + std::to_string(c.pad) + " batch=" + std::to_string(batch);
      const Tensor x = random_tensor({batch, c.cin, c.h, c.w}, rng);
      const Tensor y = conv.forward(x, tape);
      const Tensor dy = random_tensor(y.shape(), rng);
      *conv.grads()[0] = gw0;
      *conv.grads()[1] = gb0;
      const Tensor dx = conv.backward(dy, tape);
      for (const fuse::util::Isa isa : fuse::util::host_isas()) {
        const ColumnGrads want = column_backward(
            x, conv.weight(), dy, 3, c.pad, gw0, gb0, isa);
        const std::string on = what + " on " + fuse::util::isa_name(isa);
        expect_same_bits(*conv.grads()[0], want.dw, "Conv2d dW, " + on);
        expect_same_bits(*conv.grads()[1], want.db, "Conv2d db, " + on);
        expect_same_bits(dx, want.dx, "Conv2d dx, " + on);

        Tensor gw = gw0, gb = gb0, xp, y_isa, dx_isa;
        fuse::tensor::conv2d(x, conv.weight(), conv.bias(), 3, c.pad, xp,
                             y_isa);
        fuse::tensor::conv2d_backward(xp, conv.weight(), dy, 3, c.pad, gw, gb,
                                      &dx_isa, isa);
        expect_same_bits(gw, want.dw, "conv2d_backward dW, " + on);
        expect_same_bits(gb, want.db, "conv2d_backward db, " + on);
        expect_same_bits(dx_isa, want.dx, "conv2d_backward dx, " + on);
      }
    }
  }
}

// --------------------------------------------------------- gradcheck --

TEST(TrainBackend, GradCheckConv2d) {
  fuse::nn::Tape tape;
  for (const std::size_t pad : {0u, 1u}) {
    SCOPED_TRACE("pad=" + std::to_string(pad));
    fuse::util::Rng rng(21 + pad);
    fuse::nn::Conv2d conv(2, 3, 3, pad, rng);
    Tensor x = random_tensor({2, 2, 5, 5}, rng);
    const std::size_t oh = 5 + 2 * pad - 2;
    const Tensor target = random_tensor({2, 3, oh, oh}, rng);

    auto loss_fn = [&] {
      const Tensor y = conv.forward(x, tape);
      return fuse::nn::l2_loss(y, target, nullptr);
    };
    const Tensor y = conv.forward(x, tape);
    Tensor dy;
    (void)fuse::nn::l2_loss(y, target, &dy);
    conv.zero_grad();
    const Tensor dx = conv.backward(dy, tape);

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

// ------------------------------------------------- clone/tape contract --

TEST(TrainBackend, CloneMustForwardBeforeBackward) {
  fuse::nn::Tape tape;
  fuse::util::Rng rng(3);
  fuse::nn::Conv2d conv(2, 4, 3, 1, rng);
  const Tensor x = random_tensor({2, 2, 6, 6}, rng);
  const Tensor y = conv.forward(x, tape);
  const Tensor dy = random_tensor(y.shape(), rng);
  EXPECT_NO_THROW(conv.backward(dy, tape));

  // The tape holds the forward, not the layer: a backward finds only the
  // forward it pairs with, so a second backward, or a clone's backward on
  // its original's forward or on a fresh tape, throws instead of misreading.
  EXPECT_THROW(conv.backward(dy, tape), std::logic_error);
  const auto clone = conv.clone();
  (void)conv.forward(x, tape);
  EXPECT_THROW(clone->backward(dy, tape), std::logic_error);
  fuse::nn::Tape fresh;
  EXPECT_THROW(clone->backward(dy, fresh), std::logic_error);
  EXPECT_NO_THROW(clone->forward(x, fresh));
  EXPECT_NO_THROW(clone->backward(dy, fresh));
}

// ------------------------------------------------------------ tape reuse --

/// A Trainer-shaped step: forward, L1, backward, clip, Adam.  Returns the
/// input gradient (empty unless `input` asks for it).
const Tensor& train_step(
    fuse::nn::Module& model, fuse::nn::Tape& tape, fuse::nn::Adam& adam,
    const Tensor& x, const Tensor& target, Tensor& dpred,
    fuse::nn::InputGrad input = fuse::nn::InputGrad::kSkip) {
  const Tensor& y = model.forward(x, tape);
  (void)fuse::nn::l1_loss(y, target, &dpred);
  model.zero_grad();
  const Tensor& dx = model.backward(dpred, tape, input);
  fuse::nn::clip_grad_norm(model.grads(), 10.0f);
  adam.step(model.params(), model.grads());
  return dx;
}

TEST(Tape, SteadyTrainingStepAllocatesNothingLarge) {
  // Batch 128 twice, then 128 -> 64 -> 128 (an epoch's short last batch
  // and the next epoch's first) on the storage those first steps sized.
  fuse::util::Rng rng(61);
  const auto model = fuse::nn::build_model("mars_cnn", {.seed = 61});
  const Tensor x128 = random_tensor({128, 5, 8, 8}, rng);
  const Tensor t128 = random_tensor({128, 57}, rng);
  const Tensor x64 = random_tensor({64, 5, 8, 8}, rng);
  const Tensor t64 = random_tensor({64, 57}, rng);
  fuse::nn::Tape tape;
  fuse::nn::Adam adam(1e-3f);
  Tensor dpred;
  train_step(*model, tape, adam, x128, t128, dpred);
  train_step(*model, tape, adam, x128, t128, dpred);
  const std::size_t before = g_large_news.load();
  train_step(*model, tape, adam, x128, t128, dpred);
  train_step(*model, tape, adam, x64, t64, dpred);
  train_step(*model, tape, adam, x128, t128, dpred);
  EXPECT_EQ(g_large_news.load() - before, 0u);
}

// Steps `model` through one tape and a copy of it through a fresh tape per
// step, on batches of 128, 64 and 128 rows; the parameters, gradients and
// input gradients must agree bit for bit after every step.
void expect_reuse_is_exact(const fuse::nn::Module& model,
                           fuse::tensor::Shape x_row,
                           fuse::tensor::Shape y_row,
                           fuse::nn::InputGrad input, fuse::util::Rng& rng) {
  const auto reused = model.clone();
  const auto fresh = model.clone();
  fuse::nn::Tape tape;
  fuse::nn::Adam adam_reused(1e-3f), adam_fresh(1e-3f);
  Tensor dpred;
  for (const std::size_t batch : {128u, 64u, 128u}) {
    x_row[0] = y_row[0] = batch;
    const Tensor x = random_tensor(x_row, rng);
    const Tensor target = random_tensor(y_row, rng);
    const Tensor dx_reused =
        train_step(*reused, tape, adam_reused, x, target, dpred, input);
    fuse::nn::Tape once;
    const Tensor dx_fresh =
        train_step(*fresh, once, adam_fresh, x, target, dpred, input);
    const std::string what = model.arch_name() + " after the batch-" +
                             std::to_string(batch) + " step, ";
    expect_same_bits(dx_reused, dx_fresh, what + "dx");
    const auto pr = reused->params(), pf = fresh->params();
    const auto gr = reused->grads(), gf = fresh->grads();
    for (std::size_t i = 0; i < pr.size(); ++i) {
      expect_same_bits(*pr[i], *pf[i], what + "param " + std::to_string(i));
      expect_same_bits(*gr[i], *gf[i], what + "grad " + std::to_string(i));
    }
  }
}

TEST(Tape, ReusedTapeMatchesFreshTapesBitForBit) {
  fuse::util::Rng rng(62);
  // The trainer's model and step (no input gradient).
  expect_reuse_is_exact(*fuse::nn::build_model("mars_cnn", {.seed = 62}),
                        {0, 5, 8, 8}, {0, 57}, fuse::nn::InputGrad::kSkip,
                        rng);
  // Two convolutions with the input gradient asked for: each scatter-add
  // lands in a buffer that still holds the previous step's dx of the same
  // size, so a reused buffer that is not zeroed first shows here.
  fuse::nn::Sequential convs("conv_stack");
  convs.add(fuse::nn::Conv2d(5, 6, 3, 1, rng));
  convs.add(fuse::nn::ReLU{});
  convs.add(fuse::nn::Conv2d(6, 4, 3, 1, rng));
  expect_reuse_is_exact(convs, {0, 5, 8, 8}, {0, 4, 8, 8},
                        fuse::nn::InputGrad::kCompute, rng);
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
