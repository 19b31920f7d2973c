// Tests for the NN library.  The critical ones are the finite-difference
// gradient checks: every hand-written backward pass (Conv2d, Linear, ReLU,
// the full MARS CNN, and all three losses) is verified against central
// differences.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "nn/gradcheck.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "nn/registry.h"
#include "tensor/ops.h"
#include "util/isa.h"
#include "util/rng.h"

namespace {

using fuse::nn::Tensor;

Tensor random_tensor(fuse::tensor::Shape shape, fuse::util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = rng.uniformf(-1, 1);
  return t;
}

// ---------------------------------------------------------------- shapes --

TEST(Layers, Conv2dOutputShape) {
  fuse::nn::Tape tape;
  fuse::util::Rng rng(1);
  fuse::nn::Conv2d conv(3, 8, 3, 1, rng);
  const Tensor x = random_tensor({2, 3, 8, 8}, rng);
  const Tensor y = conv.forward(x, tape);
  EXPECT_EQ(y.shape(), (fuse::tensor::Shape{2, 8, 8, 8}));
}

TEST(Layers, Conv2dRejectsWrongChannels) {
  fuse::nn::Tape tape;
  fuse::util::Rng rng(2);
  fuse::nn::Conv2d conv(3, 8, 3, 1, rng);
  const Tensor x = random_tensor({2, 4, 8, 8}, rng);
  EXPECT_THROW(conv.forward(x, tape), std::invalid_argument);
}

TEST(Layers, LinearShapes) {
  fuse::nn::Tape tape;
  fuse::util::Rng rng(3);
  fuse::nn::Linear fc(10, 4, rng);
  const Tensor x = random_tensor({5, 10}, rng);
  const Tensor y = fc.forward(x, tape);
  EXPECT_EQ(y.shape(), (fuse::tensor::Shape{5, 4}));
  EXPECT_THROW(fc.forward(random_tensor({5, 11}, rng), tape),
               std::invalid_argument);
}

TEST(Layers, LinearMatchesHandComputation) {
  fuse::nn::Tape tape;
  fuse::util::Rng rng(4);
  fuse::nn::Linear fc(2, 2, rng);
  fc.weight() = Tensor({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  fc.bias() = Tensor({2}, {0.5f, -0.5f});
  const Tensor x({1, 2}, {1.0f, 1.0f});
  const Tensor y = fc.forward(x, tape);
  EXPECT_FLOAT_EQ(y[0], 1.0f + 2.0f + 0.5f);
  EXPECT_FLOAT_EQ(y[1], 3.0f + 4.0f - 0.5f);
}

TEST(Layers, FlattenRoundTrip) {
  fuse::nn::Tape tape;
  fuse::util::Rng rng(5);
  fuse::nn::Flatten fl;
  const Tensor x = random_tensor({3, 2, 4, 4}, rng);
  const Tensor y = fl.forward(x, tape);
  EXPECT_EQ(y.shape(), (fuse::tensor::Shape{3, 32}));
  const Tensor back = fl.backward(y, tape);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(Model, ParameterCountMatchesPaperScale) {
  // The MARS input is 8x8x5 regardless of the fusion setting.
  const auto model = fuse::nn::build_model("mars_cnn", {.seed = 6});
  // Paper reports 1,095,115; our bookkeeping gives ~1.084M (see
  // nn/registry.cpp).
  EXPECT_NEAR(static_cast<double>(model->num_params()), 1.09e6, 2.5e4);
}

TEST(Model, ForwardShape) {
  fuse::nn::Tape tape;
  fuse::util::Rng rng(7);
  const auto model = fuse::nn::build_model("mars_cnn", {.seed = 7});
  const Tensor x = random_tensor({4, 5, 8, 8}, rng);
  const Tensor y = model->forward(x, tape);
  EXPECT_EQ(y.shape(), (fuse::tensor::Shape{4, 57}));
}

TEST(Model, LastLayerParamsAreSubset) {
  const auto model = fuse::nn::build_model("mars_cnn", {.seed = 8});
  EXPECT_EQ(model->last_layer_params().size(), 2u);
  EXPECT_EQ(model->params().size(), 8u);
}

TEST(Model, CloneIsIndependent) {
  const auto a = fuse::nn::build_model("mars_cnn", {.seed = 9});
  const auto b = a->clone();  // deep copy
  (*b->params()[0])[0] += 1.0f;
  EXPECT_NE((*a->params()[0])[0], (*b->params()[0])[0]);
}

TEST(Model, CopyParamsFrom) {
  const auto a = fuse::nn::build_model("mars_cnn", {.seed = 10});
  const auto b = fuse::nn::build_model("mars_cnn", {.seed = 11});
  b->copy_params_from(*a);
  const auto pa = a->params(), pb = b->params();
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::size_t k = 0; k < pa[i]->numel(); ++k)
      ASSERT_EQ((*pa[i])[k], (*pb[i])[k]);
}

TEST(Model, SaveLoadRoundTrip) {
  fuse::nn::Tape tape;
  fuse::util::Rng rng(11);
  const auto a = fuse::nn::build_model("mars_cnn", {.seed = 11});
  std::stringstream ss;
  a->save(ss);
  const auto b = fuse::nn::build_model("mars_cnn", {.seed = 12});
  b->load(ss);
  const Tensor x = random_tensor({2, 5, 8, 8}, rng);
  const Tensor ya = a->forward(x, tape);
  const Tensor yb = b->forward(x, tape);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

// ------------------------------------------------------------ gradients --

TEST(GradCheck, LinearWeightsBiasAndInput) {
  fuse::nn::Tape tape;
  fuse::util::Rng rng(20);
  fuse::nn::Linear fc(6, 4, rng);
  Tensor x = random_tensor({3, 6}, rng);
  const Tensor target = random_tensor({3, 4}, rng);

  auto loss_fn = [&] {
    const Tensor y = fc.forward(x, tape);
    return fuse::nn::l2_loss(y, target, nullptr);
  };
  // Analytic gradients.
  const Tensor y = fc.forward(x, tape);
  Tensor dy;
  (void)fuse::nn::l2_loss(y, target, &dy);
  fuse::nn::zero_grads(fc.grads());
  const Tensor dx = fc.backward(dy, tape);

  EXPECT_TRUE(fuse::nn::check_gradient(loss_fn, fc.weight(),
                                       *fc.grads()[0]).ok())
      << "weight gradient";
  EXPECT_TRUE(fuse::nn::check_gradient(loss_fn, fc.bias(),
                                       *fc.grads()[1]).ok())
      << "bias gradient";
  EXPECT_TRUE(fuse::nn::check_gradient(loss_fn, x, dx).ok())
      << "input gradient";
}

TEST(GradCheck, Conv2dWeightsBiasAndInput) {
  fuse::nn::Tape tape;
  fuse::util::Rng rng(21);
  fuse::nn::Conv2d conv(2, 3, 3, 1, rng);
  Tensor x = random_tensor({2, 2, 5, 5}, rng);
  const Tensor target = random_tensor({2, 3, 5, 5}, rng);

  auto loss_fn = [&] {
    const Tensor y = conv.forward(x, tape);
    return fuse::nn::l2_loss(y, target, nullptr);
  };
  const Tensor y = conv.forward(x, tape);
  Tensor dy;
  (void)fuse::nn::l2_loss(y, target, &dy);
  fuse::nn::zero_grads(conv.grads());
  const Tensor dx = conv.backward(dy, tape);

  EXPECT_TRUE(fuse::nn::check_gradient(loss_fn, conv.weight(),
                                       *conv.grads()[0]).ok())
      << "weight gradient";
  EXPECT_TRUE(fuse::nn::check_gradient(loss_fn, conv.bias(),
                                       *conv.grads()[1]).ok())
      << "bias gradient";
  EXPECT_TRUE(fuse::nn::check_gradient(loss_fn, x, dx).ok())
      << "input gradient";
}

TEST(GradCheck, FullModelEndToEnd) {
  fuse::nn::Tape tape;
  // The MARS CNN on a small input and output end-to-end: checks layer
  // composition order.
  fuse::util::Rng rng(22);
  const auto built = fuse::nn::build_model(
      "mars_cnn",
      {.in_channels = 2, .grid_h = 4, .grid_w = 4, .outputs = 6, .seed = 22});
  fuse::nn::Module& model = *built;
  Tensor x = random_tensor({2, 2, 4, 4}, rng);
  const Tensor target = random_tensor({2, 6}, rng);

  auto loss_fn = [&] {
    const Tensor y = model.forward(x, tape);
    return fuse::nn::l2_loss(y, target, nullptr);
  };
  const Tensor y = model.forward(x, tape);
  Tensor dy;
  (void)fuse::nn::l2_loss(y, target, &dy);
  model.zero_grad();
  model.backward(dy, tape);

  // ReLU kinks make isolated finite-difference probes step across
  // activation boundaries, so require a large majority of coordinates to
  // match rather than all of them (the kink-free per-layer checks above
  // already pin down exactness).
  const auto params = model.params();
  const auto grads = model.grads();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto res =
        fuse::nn::check_gradient(loss_fn, *params[i], *grads[i], 1e-3f, 24);
    EXPECT_GE(res.fraction_within(5e-2f), 0.8f)
        << "param " << i << " max_rel_err " << res.max_rel_err;
  }
}

// ---------------------------------------------------------------- losses --

TEST(Loss, L1ValueAndGradient) {
  const Tensor pred({2}, {1.0f, -2.0f});
  const Tensor target({2}, {0.0f, 0.0f});
  Tensor grad;
  const float loss = fuse::nn::l1_loss(pred, target, &grad);
  EXPECT_FLOAT_EQ(loss, 1.5f);
  EXPECT_FLOAT_EQ(grad[0], 0.5f);
  EXPECT_FLOAT_EQ(grad[1], -0.5f);
}

TEST(Loss, L2ValueAndGradient) {
  const Tensor pred({2}, {1.0f, -2.0f});
  const Tensor target({2}, {0.0f, 0.0f});
  Tensor grad;
  const float loss = fuse::nn::l2_loss(pred, target, &grad);
  EXPECT_FLOAT_EQ(loss, 2.5f);
  EXPECT_FLOAT_EQ(grad[0], 1.0f);
  EXPECT_FLOAT_EQ(grad[1], -2.0f);
}

TEST(Loss, HuberBlendsRegimes) {
  const Tensor pred({2}, {0.5f, 3.0f});
  const Tensor target({2}, {0.0f, 0.0f});
  Tensor grad;
  const float loss = fuse::nn::huber_loss(pred, target, 1.0f, &grad);
  // Quadratic inside delta, linear outside: (0.125 + 2.5) / 2.
  EXPECT_NEAR(loss, (0.125f + 2.5f) / 2.0f, 1e-6f);
  EXPECT_FLOAT_EQ(grad[0], 0.25f);  // d/2 elements
  EXPECT_FLOAT_EQ(grad[1], 0.5f);   // clipped at delta
}

struct LossCase {
  const char* name;
  float (*fn)(const Tensor&, const Tensor&, Tensor*);
};

class LossGradSweep : public ::testing::TestWithParam<LossCase> {};

TEST_P(LossGradSweep, GradientMatchesFiniteDifference) {
  fuse::util::Rng rng(30);
  Tensor pred = random_tensor({4, 7}, rng);
  const Tensor target = random_tensor({4, 7}, rng);
  Tensor grad;
  (void)GetParam().fn(pred, target, &grad);
  auto loss_fn = [&] { return GetParam().fn(pred, target, nullptr); };
  EXPECT_TRUE(fuse::nn::check_gradient(loss_fn, pred, grad, 1e-3f, 28).ok())
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllLosses, LossGradSweep,
    ::testing::Values(LossCase{"l1", &fuse::nn::l1_loss},
                      LossCase{"l2", &fuse::nn::l2_loss}));

// ------------------------------------------------------------ optimizers --

TEST(Optim, SgdStepDirection) {
  Tensor p({2}, {1.0f, 1.0f});
  Tensor g({2}, {0.5f, -0.5f});
  fuse::nn::Sgd sgd(0.1f);
  sgd.step({&p}, {&g});
  EXPECT_FLOAT_EQ(p[0], 0.95f);
  EXPECT_FLOAT_EQ(p[1], 1.05f);
}

TEST(Optim, SgdListMismatchThrows) {
  Tensor p({2});
  fuse::nn::Sgd sgd(0.1f);
  EXPECT_THROW(sgd.step({&p}, {}), std::invalid_argument);
}

TEST(Optim, AdamConvergesOnQuadratic) {
  // Minimise f(p) = 0.5 * ||p - target||^2.
  Tensor p({3}, {5.0f, -3.0f, 2.0f});
  const Tensor target({3}, {1.0f, 1.0f, 1.0f});
  fuse::nn::Adam adam(0.1f);
  for (int it = 0; it < 500; ++it) {
    Tensor g = p - target;
    adam.step({&p}, {&g});
  }
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(p[i], 1.0f, 1e-2f);
}

TEST(Optim, AdamOutpacesSgdOnIllConditionedQuadratic) {
  // f(p) = 0.5 (100 p0^2 + 0.01 p1^2): Adam's per-coordinate scaling wins.
  auto run = [&](bool use_adam) {
    Tensor p({2}, {1.0f, 1.0f});
    fuse::nn::Adam adam(0.05f);
    const fuse::nn::Sgd sgd(0.005f);  // larger would diverge on p0
    for (int it = 0; it < 300; ++it) {
      Tensor g({2}, {100.0f * p[0], 0.01f * p[1]});
      if (use_adam) {
        adam.step({&p}, {&g});
      } else {
        sgd.step({&p}, {&g});
      }
    }
    return std::fabs(p[0]) + std::fabs(p[1]);
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Optim, AdamStateResetAllowsRewiring) {
  Tensor p({2});
  Tensor g({2}, {1.0f, 1.0f});
  fuse::nn::Adam adam(0.1f);
  adam.step({&p}, {&g});
  adam.reset_state();
  Tensor p2({3});
  Tensor g2({3}, {1.0f, 1.0f, 1.0f});
  EXPECT_NO_THROW(adam.step({&p2}, {&g2}));
}

TEST(Optim, AdamShapeChangeThrows) {
  Tensor p({2});
  Tensor g({2}, {1.0f, 1.0f});
  fuse::nn::Adam adam(0.1f);
  adam.step({&p}, {&g});
  Tensor p3({3});
  Tensor g3({3});
  EXPECT_THROW(adam.step({&p3}, {&g3}), std::invalid_argument);
}

/// Adam::step's scalar loop as it was before it was vectorised, kept as
/// the oracle the library's step must match bit for bit.
struct ScalarAdam {
  float lr = 1e-3f, beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
  std::size_t t = 0;
  std::vector<Tensor> m, v;

  void step(const std::vector<Tensor*>& params,
            const std::vector<Tensor*>& grads) {
    if (m.empty()) {
      for (const Tensor* p : params) {
        m.emplace_back(p->shape());
        v.emplace_back(p->shape());
      }
    }
    ++t;
    const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
    for (std::size_t i = 0; i < params.size(); ++i) {
      Tensor& p = *params[i];
      const Tensor& g = *grads[i];
      for (std::size_t k = 0; k < p.numel(); ++k) {
        m[i][k] = beta1 * m[i][k] + (1.0f - beta1) * g[k];
        v[i][k] = beta2 * v[i][k] + (1.0f - beta2) * g[k] * g[k];
        const float mhat = m[i][k] / bc1;
        const float vhat = v[i][k] / bc2;
        p[k] -= lr * mhat / (std::sqrt(vhat) + eps);
      }
    }
  }
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Steps the library's Adam and the scalar oracle side by side from the
/// same parameters; grad_at(step, tensor, k) fills gradient element k.
void expect_adam_matches_scalar_loop(
    const std::vector<std::size_t>& sizes, const std::vector<float>& init,
    const std::function<float(int, std::size_t, std::size_t)>& grad_at) {
  std::vector<Tensor> p, q, g;
  for (const std::size_t n : sizes) {
    Tensor t({n});
    for (std::size_t k = 0; k < n; ++k) t[k] = init[k % init.size()];
    p.push_back(t);
    q.push_back(t);
    g.emplace_back(fuse::tensor::Shape{n});
  }
  std::vector<Tensor*> pp, qp, gp;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    pp.push_back(&p[i]);
    qp.push_back(&q[i]);
    gp.push_back(&g[i]);
  }
  fuse::nn::Adam adam(1e-3f);
  ScalarAdam oracle;
  for (int step = 0; step < 10; ++step) {
    for (std::size_t i = 0; i < g.size(); ++i)
      for (std::size_t k = 0; k < g[i].numel(); ++k)
        g[i][k] = grad_at(step, i, k);
    adam.step(pp, gp);
    oracle.step(qp, gp);
    for (std::size_t i = 0; i < p.size(); ++i)
      ASSERT_TRUE(same_bits(p[i], q[i]))
          << "step " << step << " tensor " << i;
  }
}

// Sizes 1, 3 and 1031 put elements in the vector loop's scalar tail too.
const std::vector<std::size_t> kAdamSizes{1, 3, 1031, 64};

TEST(Optim, AdamStepIsBitIdenticalToTheScalarLoop) {
  fuse::util::Rng rng(7);
  std::vector<float> init(97);
  for (float& x : init) x = rng.uniformf(-1, 1);
  std::vector<float> grads(10 * 2048);
  for (float& x : grads)
    x = rng.uniformf(-2, 2) * std::pow(10.0f, rng.uniformf(-6, 1));
  expect_adam_matches_scalar_loop(kAdamSizes, init,
      [&](int step, std::size_t i, std::size_t k) {
        return grads[(static_cast<std::size_t>(step) * 2048 + i * 37 + k) %
                     grads.size()];
      });
}

TEST(Optim, AdamStepWithZeroGradientsIsBitIdenticalToTheScalarLoop) {
  // All-zero gradients, also after moments have built up: the first
  // steps move nothing, later ones decay from the accumulated moments.
  expect_adam_matches_scalar_loop(kAdamSizes, {0.5f, -0.25f, 3.0f},
      [](int step, std::size_t, std::size_t k) {
        if (step < 3 || step >= 6) return 0.0f;
        return 0.01f * static_cast<float>(k % 5);
      });
}

TEST(Optim, AdamStepKeepsSignedZerosLikeTheScalarLoop) {
  // Parameters of +0 and -0 under gradients of +0, -0 and tiny values of
  // either sign: a reordered or fused update would flip a zero's sign.
  expect_adam_matches_scalar_loop(
      kAdamSizes, {0.0f, -0.0f, 0.0f, -0.0f, 1.0f},
      [](int step, std::size_t, std::size_t k) {
        const float vals[] = {0.0f, -0.0f, 1e-30f, -1e-30f, -0.0f, 0.0f};
        return vals[(k + static_cast<std::size_t>(step)) % 6];
      });
}

TEST(Optim, GradClipScalesDown) {
  Tensor g({2}, {3.0f, 4.0f});  // norm 5
  fuse::nn::clip_grad_norm({&g}, 1.0f);
  EXPECT_NEAR(std::sqrt(g.squared_norm()), 1.0f, 1e-5f);
  // Already small: untouched.
  Tensor h({2}, {0.3f, 0.4f});
  fuse::nn::clip_grad_norm({&h}, 1.0f);
  EXPECT_FLOAT_EQ(h[0], 0.3f);
}

TEST(Optim, ZeroGrads) {
  Tensor g({3}, {1.0f, 2.0f, 3.0f});
  fuse::nn::zero_grads({&g});
  EXPECT_EQ(g.abs_sum(), 0.0f);
}

// ----------------------------------------------------- training property --

TEST(Training, GradientStepReducesLossOnFixedBatch) {
  fuse::nn::Tape tape;
  fuse::util::Rng rng(40);
  const auto built = fuse::nn::build_model("mars_cnn", {.seed = 40});
  fuse::nn::Module& model = *built;
  const Tensor x = random_tensor({8, 5, 8, 8}, rng);
  const Tensor target = random_tensor({8, 57}, rng);
  fuse::nn::Adam adam(1e-3f);

  Tensor dy;
  float first = 0.0f, last = 0.0f;
  for (int it = 0; it < 60; ++it) {
    const Tensor y = model.forward(x, tape);
    const float loss = fuse::nn::l1_loss(y, target, &dy);
    if (it == 0) first = loss;
    last = loss;
    model.zero_grad();
    model.backward(dy, tape);
    adam.step(model.params(), model.grads());
  }
  EXPECT_LT(last, 0.7f * first);
}

// ------------------------------------------------------- bit identity --

struct ConvCase {
  std::size_t batch, in_channels, out_channels, kernel, pad, h, w;
};

// The implicit-GEMM conv forward y = W * col + b on every host variant
// against its scalar loop over the explicit columns, where each accumulator
// starts at the bias: the model's
// conv1/conv2 shapes, a ragged one (odd channels, 5x6 image, no pad) and
// batches whose column count leaves partial column tiles.
TEST(ConvGemm, BiasStartedForwardIsBitIdenticalOnEveryIsa) {
  fuse::util::Rng rng(41);
  for (const ConvCase& p :
       {ConvCase{1, 5, 16, 3, 1, 8, 8}, ConvCase{3, 16, 32, 3, 1, 8, 8},
        ConvCase{2, 3, 7, 3, 0, 5, 6}, ConvCase{1, 2, 9, 1, 0, 3, 5}}) {
    const Tensor x = random_tensor({p.batch, p.in_channels, p.h, p.w}, rng);
    const Tensor w =
        random_tensor({p.out_channels, p.in_channels * p.kernel * p.kernel},
                      rng);
    const Tensor b = random_tensor({p.out_channels}, rng);
    // The batch's column matrices side by side: [K, N*hw].
    const Tensor cols = fuse::tensor::im2col(x, p.kernel, p.kernel, 1, p.pad);
    const std::size_t k = cols.dim(1), hw = cols.dim(2), nc = p.batch * hw;
    Tensor col({k, nc});
    for (std::size_t img = 0; img < p.batch; ++img)
      for (std::size_t kk = 0; kk < k; ++kk)
        for (std::size_t j = 0; j < hw; ++j)
          col.at(kk, img * hw + j) = cols[(img * k + kk) * hw + j];
    Tensor expected({p.out_channels, nc});
    for (std::size_t r = 0; r < p.out_channels; ++r)
      for (std::size_t j = 0; j < nc; ++j) {
        float acc = b[r];
        for (std::size_t kk = 0; kk < k; ++kk)
          acc += w.at(r, kk) * col.at(kk, j);
        expected.at(r, j) = acc;
      }
    for (const fuse::util::Isa isa : fuse::util::host_isas()) {
      const Tensor y = fuse::tensor::conv2d(x, w, b, p.kernel, p.pad, isa);
      Tensor y2({p.out_channels, nc});
      for (std::size_t img = 0; img < p.batch; ++img)
        for (std::size_t r = 0; r < p.out_channels; ++r)
          for (std::size_t j = 0; j < hw; ++j)
            y2.at(r, img * hw + j) = y[(img * p.out_channels + r) * hw + j];
      EXPECT_EQ(std::memcmp(y2.data(), expected.data(),
                            y2.numel() * sizeof(float)),
                0)
          << fuse::util::isa_name(isa) << " oc = " << p.out_channels
          << ", k = " << k << ", columns = " << nc;
    }
  }
}

// Row r of a batch-N result must equal the batch-1 result for sample r,
// bit for bit (the DESIGN.md section 2 determinism contract that lets the
// serving micro-batcher batch frames across sessions).
void expect_rows_match_batch_one(const Tensor& batched, const Tensor& x,
                                 const std::function<Tensor(const Tensor&)>& f,
                                 const std::string& what) {
  const std::size_t n = x.dim(0);
  const std::size_t in_row = x.numel() / n;
  const std::size_t out_row = batched.numel() / n;
  for (std::size_t r = 0; r < n; ++r) {
    fuse::tensor::Shape one = x.shape();
    one[0] = 1;
    Tensor xr(one);
    std::memcpy(xr.data(), x.data() + r * in_row, in_row * sizeof(float));
    const Tensor yr = f(xr);
    ASSERT_EQ(yr.numel(), out_row);
    EXPECT_EQ(std::memcmp(yr.data(), batched.data() + r * out_row,
                          out_row * sizeof(float)),
              0)
        << what << ": row " << r << " of batch " << n;
  }
}

TEST(Determinism, BatchedRowsEqualBatchOneBitExactly) {
  fuse::nn::Tape tape, row_tape;
  fuse::util::Rng rng(42);
  const auto model = fuse::nn::build_model("mars_cnn", {.seed = 42});
  fuse::nn::Conv2d conv(16, 32, 3, 1, rng);
  fuse::nn::Linear fc(2048, 512, rng);
  for (const std::size_t n : {1, 4, 8, 16, 17}) {
    const Tensor x = random_tensor({n, 5, 8, 8}, rng);
    expect_rows_match_batch_one(
        model->infer(x), x,
        [&](const Tensor& xr) { return model->infer(xr); },
        "Sequential::infer");

    // The batch and its rows run on separate tapes: a forward's result
    // lives in its tape only until that tape's next forward.
    const Tensor xc = random_tensor({n, 16, 8, 8}, rng);
    expect_rows_match_batch_one(
        conv.forward(xc, tape), xc,
        [&](const Tensor& xr) { return conv.forward(xr, row_tape); },
        "Conv2d::forward");

    const Tensor xl = random_tensor({n, 2048}, rng);
    expect_rows_match_batch_one(
        fc.forward(xl, tape), xl,
        [&](const Tensor& xr) { return fc.forward(xr, row_tape); },
        "Linear::forward");
  }
}

}  // namespace
