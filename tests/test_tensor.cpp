// Tests for the tensor substrate: shape algebra, elementwise ops, GEMM
// against a naive reference over a sweep of shapes/transposes, im2col /
// col2im consistency, conv2d argument checks, and serialization.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/isa.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using fuse::tensor::Shape;
using fuse::tensor::Tensor;
using fuse::tensor::Trans;

Tensor random_tensor(Shape shape, fuse::util::Rng& rng, float lo = -1.0f,
                     float hi = 1.0f) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = rng.uniformf(lo, hi);
  return t;
}

// ---------------------------------------------------------------- basics --

TEST(Tensor, ZeroInitialisedConstruction) {
  const Tensor t({3, 4});
  EXPECT_EQ(t.ndim(), 2u);
  EXPECT_EQ(t.numel(), 12u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FullAndOnes) {
  const Tensor f = Tensor::full({2, 2}, 3.5f);
  EXPECT_EQ(f[0], 3.5f);
  EXPECT_EQ(f[3], 3.5f);
  const Tensor o = Tensor::ones({5});
  EXPECT_EQ(o.sum(), 5.0f);
}

TEST(Tensor, ArangeValues) {
  const Tensor a = Tensor::arange(4);
  EXPECT_EQ(a[0], 0.0f);
  EXPECT_EQ(a[3], 3.0f);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  t.reshape({3, 2});
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_EQ(t.at(2, 1), 6.0f);
}

TEST(Tensor, ReshapeNumelMismatchThrows) {
  Tensor t({2, 3});
  EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, At4Indexing) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 42.0f;
  EXPECT_EQ(t[t.numel() - 1], 42.0f);
}

TEST(Tensor, ElementwiseOps) {
  const Tensor a({2}, {1.0f, 2.0f});
  const Tensor b({2}, {3.0f, 5.0f});
  const Tensor sum = a + b;
  EXPECT_EQ(sum[0], 4.0f);
  const Tensor diff = b - a;
  EXPECT_EQ(diff[1], 3.0f);
  const Tensor scaled = a * 2.0f;
  EXPECT_EQ(scaled[1], 4.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2});
  const Tensor b({3});
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Tensor, AddScaled) {
  Tensor a({3}, {1.0f, 1.0f, 1.0f});
  const Tensor b({3}, {1.0f, 2.0f, 3.0f});
  a.add_scaled(b, -0.5f);
  EXPECT_FLOAT_EQ(a[2], -0.5f);
}

TEST(Tensor, Reductions) {
  const Tensor t({4}, {-1.0f, 2.0f, -3.0f, 4.0f});
  EXPECT_FLOAT_EQ(t.sum(), 2.0f);
  EXPECT_FLOAT_EQ(t.mean(), 0.5f);
  EXPECT_FLOAT_EQ(t.abs_sum(), 10.0f);
  EXPECT_FLOAT_EQ(t.max(), 4.0f);
  EXPECT_FLOAT_EQ(t.min(), -3.0f);
  EXPECT_FLOAT_EQ(t.squared_norm(), 30.0f);
}

TEST(Tensor, RowsSlice) {
  const Tensor t({3, 2}, {1, 2, 3, 4, 5, 6});
  const Tensor mid = t.rows(1, 3);
  EXPECT_EQ(mid.dim(0), 2u);
  EXPECT_EQ(mid.at(0, 0), 3.0f);
  EXPECT_EQ(mid.at(1, 1), 6.0f);
  EXPECT_THROW(t.rows(2, 4), std::out_of_range);
}

TEST(Tensor, SerializationRoundTrip) {
  fuse::util::Rng rng(3);
  const Tensor t = random_tensor({3, 5, 2}, rng);
  std::stringstream ss;
  t.save(ss);
  const Tensor u = Tensor::load(ss);
  ASSERT_EQ(u.shape(), t.shape());
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(u[i], t[i]);
}

TEST(Tensor, LoadTruncatedThrows) {
  std::stringstream ss;
  Tensor({4, 4}).save(ss);
  std::string buf = ss.str();
  buf.resize(buf.size() / 2);
  std::stringstream cut(buf);
  EXPECT_THROW(Tensor::load(cut), std::runtime_error);
}

// ------------------------------------------------------------------ GEMM --

// Naive reference: C = alpha * op(A) op(B) + beta * C.
Tensor gemm_reference(Trans ta, Trans tb, float alpha, const Tensor& a,
                      const Tensor& b, float beta, const Tensor& c0) {
  const bool tra = ta == Trans::kYes;
  const bool trb = tb == Trans::kYes;
  const std::size_t m = tra ? a.dim(1) : a.dim(0);
  const std::size_t k = tra ? a.dim(0) : a.dim(1);
  const std::size_t n = trb ? b.dim(0) : b.dim(1);
  Tensor c = c0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = tra ? a.at(kk, i) : a.at(i, kk);
        const float bv = trb ? b.at(j, kk) : b.at(kk, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = alpha * static_cast<float>(acc) + beta * c.at(i, j);
    }
  }
  return c;
}

struct GemmCase {
  std::size_t m, k, n;
  bool ta, tb;
  float alpha, beta;
};

// Readable case names in failure messages.
void PrintTo(const GemmCase& p, std::ostream* os) {
  *os << "M=" << p.m << " K=" << p.k << " N=" << p.n
      << (p.ta ? " A^T" : "") << (p.tb ? " B^T" : "") << " alpha=" << p.alpha
      << " beta=" << p.beta;
}

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesNaiveReference) {
  const GemmCase p = GetParam();
  fuse::util::Rng rng(17 + p.m * 131 + p.k * 31 + p.n);
  const Tensor a = p.ta ? random_tensor({p.k, p.m}, rng)
                        : random_tensor({p.m, p.k}, rng);
  const Tensor b = p.tb ? random_tensor({p.n, p.k}, rng)
                        : random_tensor({p.k, p.n}, rng);
  Tensor c = random_tensor({p.m, p.n}, rng);
  const Tensor expected =
      gemm_reference(p.ta ? Trans::kYes : Trans::kNo,
                     p.tb ? Trans::kYes : Trans::kNo, p.alpha, a, b, p.beta,
                     c);
  fuse::tensor::gemm(p.ta ? Trans::kYes : Trans::kNo,
                     p.tb ? Trans::kYes : Trans::kNo, p.alpha, a, b, p.beta,
                     c);
  for (std::size_t i = 0; i < c.numel(); ++i)
    ASSERT_NEAR(c[i], expected[i], 1e-3f) << "element " << i;
}

// The kernel's scalar oracle: each output is the zero-started,
// sequential-k, multiply-then-add float sum, folded in as
// c = beta * c + alpha * sum (C unread when beta == 0, kept when 1).
Tensor gemm_scalar_loop(Trans ta, Trans tb, float alpha, const Tensor& a,
                        const Tensor& b, float beta, const Tensor& c0) {
  const bool tra = ta == Trans::kYes;
  const bool trb = tb == Trans::kYes;
  const std::size_t m = tra ? a.dim(1) : a.dim(0);
  const std::size_t k = tra ? a.dim(0) : a.dim(1);
  const std::size_t n = trb ? b.dim(0) : b.dim(1);
  Tensor c = c0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk)
        acc += (tra ? a.at(kk, i) : a.at(i, kk)) *
               (trb ? b.at(j, kk) : b.at(kk, j));
      const float base = beta == 0.0f   ? 0.0f
                         : beta == 1.0f ? c.at(i, j)
                                        : beta * c.at(i, j);
      c.at(i, j) = base + alpha * acc;
    }
  }
  return c;
}

struct GemmOperands {
  Tensor a, b, c;
};

GemmOperands gemm_operands(const GemmCase& p) {
  fuse::util::Rng rng(17 + p.m * 131 + p.k * 31 + p.n);
  GemmOperands o;
  o.a = p.ta ? random_tensor({p.k, p.m}, rng) : random_tensor({p.m, p.k}, rng);
  o.b = p.tb ? random_tensor({p.n, p.k}, rng) : random_tensor({p.k, p.n}, rng);
  o.c = random_tensor({p.m, p.n}, rng);
  return o;
}

// Every host variant of the kernel gives the scalar loop's bits, whatever
// the shape, transpose, alpha or beta.
TEST_P(GemmSweep, EveryIsaIsBitIdenticalToTheScalarLoop) {
  const GemmCase p = GetParam();
  const Trans ta = p.ta ? Trans::kYes : Trans::kNo;
  const Trans tb = p.tb ? Trans::kYes : Trans::kNo;
  const GemmOperands o = gemm_operands(p);
  const Tensor expected =
      gemm_scalar_loop(ta, tb, p.alpha, o.a, o.b, p.beta, o.c);
  for (const fuse::util::Isa isa : fuse::util::host_isas()) {
    Tensor c = o.c;
    fuse::tensor::gemm(ta, tb, p.alpha, o.a, o.b, p.beta, c, isa);
    EXPECT_EQ(std::memcmp(c.data(), expected.data(),
                          c.numel() * sizeof(float)),
              0)
        << fuse::util::isa_name(isa);
  }
}

// The determinism contract under real parallelism: the call fanned out
// over the global pool gives the bits of the same call kept on one thread.
TEST_P(GemmSweep, PoolFanOutMatchesInlineBitExactly) {
  const GemmCase p = GetParam();
  const Trans ta = p.ta ? Trans::kYes : Trans::kNo;
  const Trans tb = p.tb ? Trans::kYes : Trans::kNo;
  const GemmOperands o = gemm_operands(p);
  Tensor inline_c = o.c;
  {
    fuse::util::InlineScope serial;
    fuse::tensor::gemm(ta, tb, p.alpha, o.a, o.b, p.beta, inline_c);
  }
  Tensor pooled_c = o.c;
  fuse::tensor::gemm(ta, tb, p.alpha, o.a, o.b, p.beta, pooled_c);
  EXPECT_EQ(std::memcmp(pooled_c.data(), inline_c.data(),
                        inline_c.numel() * sizeof(float)),
            0);
}

std::vector<GemmCase> gemm_sweep_cases() {
  std::vector<GemmCase> cases{
      GemmCase{1, 1, 1, false, false, 1.0f, 0.0f},
      GemmCase{3, 4, 5, false, false, 1.0f, 0.0f},
      GemmCase{3, 4, 5, true, false, 1.0f, 0.0f},
      GemmCase{3, 4, 5, false, true, 1.0f, 0.0f},
      GemmCase{3, 4, 5, true, true, 1.0f, 0.0f},
      GemmCase{7, 13, 9, false, false, 2.0f, 0.5f},
      GemmCase{16, 16, 16, true, false, 1.0f, 1.0f},
      GemmCase{64, 64, 64, false, false, 1.0f, 0.0f},
      GemmCase{65, 67, 63, false, true, 1.0f, 0.0f},
      GemmCase{128, 300, 70, false, false, 1.0f, 0.0f},
      GemmCase{130, 257, 260, true, true, 0.5f, 2.0f},
      GemmCase{257, 512, 57, false, true, 1.0f, 0.0f},
      // Small-M NT shapes (x · Wᵀ, the batch-1 FC layers).
      GemmCase{1, 2048, 512, false, true, 1.0f, 0.0f},
      GemmCase{3, 2048, 512, false, true, 1.0f, 0.0f},
      GemmCase{4, 2048, 512, false, true, 1.0f, 0.0f},
      GemmCase{5, 2048, 512, false, true, 1.0f, 0.0f},
      GemmCase{1, 512, 57, false, true, 1.0f, 0.0f},
      GemmCase{3, 7, 13, false, true, 0.5f, 2.0f}};
  // NN, NT and TN at every row count around the variants' tile heights
  // (4, 6, 8) and row blocks, with ragged N and K tails (N = 45: one full
  // and one partial 32-column tile; K = 300: a full 256 K-block plus a
  // tail that is no multiple of any lane count), alpha != 1 and
  // beta not in {0, 1}.
  for (const std::size_t m : {1, 2, 3, 4, 7, 8, 9, 16, 17, 64, 128})
    for (const auto& [ta, tb] : {std::pair{false, false},
                                 std::pair{false, true},
                                 std::pair{true, false}})
      cases.push_back(GemmCase{m, 300, 45, ta, tb, 0.75f, -0.5f});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ShapesAndTransposes, GemmSweep,
                         ::testing::ValuesIn(gemm_sweep_cases()));

// Every row of an NT product (x · Wᵀ: the FC layers) must be bit-identical
// to the same row computed inside a 17-row batch, under every host variant
// and on both sides of the kernel's in-place / packed boundary (M <= MR
// reads W in place): batched serving and the batch-1 reference both rely
// on outputs not depending on batch size or ISA.  The shapes cover full tiles (k = 2048, n = 512), column tails
// (n = 57, 520), n below one tile (n = 7), k tails (k = 2047, 20) and k
// below one tile (k = 7); alpha != 1 and beta != 0 exercise the scaled fold
// into C.
TEST(Gemm, NtRowsAreBatchInvariantBitExactly) {
  constexpr std::size_t kBig = 17;
  constexpr float alpha = 0.75f, beta = 0.5f;
  fuse::util::Rng rng(29);
  for (const std::size_t k : {2048, 2047, 20, 7}) {
    for (const std::size_t n : {512, 57, 520, 7}) {
      const Tensor w = random_tensor({n, k}, rng);
      const Tensor x = random_tensor({kBig, k}, rng);
      const Tensor c0 = random_tensor({kBig, n}, rng);
      Tensor blocked = c0;
      fuse::tensor::gemm(Trans::kNo, Trans::kYes, alpha, x, w, beta, blocked);
      for (const fuse::util::Isa isa : fuse::util::host_isas()) {
        for (const std::size_t m : {1, 2, 3, 4, 5, 16, 17}) {
          // Rows [r0, r0 + m) of the batch, C pre-filled for beta.
          const std::size_t r0 = kBig - m;
          Tensor xs({m, k}), c({m, n});
          std::memcpy(xs.data(), x.data() + r0 * k, m * k * sizeof(float));
          std::memcpy(c.data(), c0.data() + r0 * n, m * n * sizeof(float));
          fuse::tensor::gemm(Trans::kNo, Trans::kYes, alpha, xs, w, beta, c,
                             isa);
          EXPECT_EQ(std::memcmp(c.data(), blocked.data() + r0 * n,
                                m * n * sizeof(float)),
                    0)
              << fuse::util::isa_name(isa) << " k = " << k << ", n = " << n
              << ", M = " << m;
        }
      }
    }
  }
}

// The explicit-variant entry point runs exactly the host's levels.
TEST(Gemm, ExplicitVariantMustRunOnThisHost) {
  const Tensor x({1, 4});
  const Tensor w({2, 4});
  for (const fuse::util::Isa isa :
       {fuse::util::Isa::kGeneric, fuse::util::Isa::kAvx2,
        fuse::util::Isa::kAvx512f}) {
    Tensor y({1, 2});
    if (fuse::util::host_supports(isa)) {
      EXPECT_NO_THROW(fuse::tensor::gemm(Trans::kNo, Trans::kYes, 1.0f, x, w,
                                         0.0f, y, isa));
    } else {
      EXPECT_THROW(fuse::tensor::gemm(Trans::kNo, Trans::kYes, 1.0f, x, w,
                                      0.0f, y, isa),
                   std::invalid_argument);
    }
  }
}

TEST(Gemm, InnerDimensionMismatchThrows) {
  const Tensor a({2, 3});
  const Tensor b({4, 5});
  Tensor c({2, 5});
  EXPECT_THROW(
      fuse::tensor::gemm(Trans::kNo, Trans::kNo, 1.0f, a, b, 0.0f, c),
      std::invalid_argument);
}

TEST(Gemm, OutputShapeMismatchThrows) {
  const Tensor a({2, 3});
  const Tensor b({3, 5});
  Tensor c({2, 4});
  EXPECT_THROW(
      fuse::tensor::gemm(Trans::kNo, Trans::kNo, 1.0f, a, b, 0.0f, c),
      std::invalid_argument);
}

TEST(Gemm, MatmulConvenience) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor eye({3, 3}, {1, 0, 0, 0, 1, 0, 0, 0, 1});
  const Tensor c = fuse::tensor::matmul(a, eye);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(c[i], a[i]);
}

// --------------------------------------------------------------- im2col --

TEST(Im2col, IdentityKernelReproducesInput) {
  // 1x1 kernel, no padding: col[n, c, hw] is just the input.
  fuse::util::Rng rng(5);
  const Tensor x = random_tensor({2, 3, 4, 4}, rng);
  const Tensor col = fuse::tensor::im2col(x, 1, 1, 1, 0);
  ASSERT_EQ(col.shape(), (Shape{2, 3, 16}));
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(col[i], x[i]);
}

TEST(Im2col, KnownPatchValues) {
  // 1 sample, 1 channel, 3x3 image, 3x3 kernel, pad 1 -> 9 output positions.
  Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor col = fuse::tensor::im2col(x, 3, 3, 1, 1);
  ASSERT_EQ(col.shape(), (Shape{1, 9, 9}));
  // Kernel-centre row (ky=1, kx=1 -> row 4) must equal the image itself.
  for (std::size_t p = 0; p < 9; ++p)
    EXPECT_EQ(col[4 * 9 + p], x[p]) << "position " << p;
  // Top-left kernel tap at output (0,0) looks at padding -> zero.
  EXPECT_EQ(col[0], 0.0f);
  // Top-left tap at output (1,1) sees pixel (0,0).
  EXPECT_EQ(col[0 * 9 + 4], 1.0f);
}

struct ConvShapeCase {
  std::size_t n, c, h, w, k, pad;
};

class Im2colSweep : public ::testing::TestWithParam<ConvShapeCase> {};

TEST_P(Im2colSweep, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property, which
  // is exactly what the convolution backward pass relies on.
  const auto p = GetParam();
  fuse::util::Rng rng(11);
  const Tensor x = random_tensor({p.n, p.c, p.h, p.w}, rng);
  const std::size_t oh = fuse::tensor::conv_out_size(p.h, p.k, 1, p.pad);
  const std::size_t ow = fuse::tensor::conv_out_size(p.w, p.k, 1, p.pad);
  const Tensor y = random_tensor({p.n, p.c * p.k * p.k, oh * ow}, rng);

  const Tensor cx = fuse::tensor::im2col(x, p.k, p.k, 1, p.pad);
  const Tensor xy = fuse::tensor::col2im(y, p.n, p.c, p.h, p.w, p.k, p.k, 1,
                                         p.pad);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cx.numel(); ++i)
    lhs += static_cast<double>(cx[i]) * y[i];
  for (std::size_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x[i]) * xy[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Im2colSweep,
    ::testing::Values(ConvShapeCase{1, 1, 3, 3, 3, 1},
                      ConvShapeCase{2, 3, 8, 8, 3, 1},
                      ConvShapeCase{1, 5, 8, 8, 3, 1},
                      ConvShapeCase{3, 2, 5, 7, 3, 0},
                      ConvShapeCase{2, 4, 6, 6, 5, 2},
                      ConvShapeCase{1, 15, 8, 8, 3, 1}));

// ------------------------------------------------------------- pointwise --

TEST(Ops, ReluClampsNegatives) {
  const Tensor x({4}, {-2.0f, -0.0f, 0.5f, 3.0f});
  const Tensor y = fuse::tensor::relu(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 0.5f);
  EXPECT_EQ(y[3], 3.0f);
}

TEST(Ops, ReluBackwardMasks) {
  const Tensor x({3}, {-1.0f, 0.0f, 2.0f});
  Tensor dx({3}, {5.0f, 5.0f, 5.0f});
  fuse::tensor::relu_backward_inplace(dx, fuse::tensor::relu(x));
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 0.0f);  // subgradient 0 at x == 0
  EXPECT_EQ(dx[2], 5.0f);
}

TEST(Ops, AddRowBias) {
  Tensor x({2, 3});
  const Tensor b({3}, {1.0f, 2.0f, 3.0f});
  fuse::tensor::add_row_bias(x, b);
  EXPECT_EQ(x.at(0, 0), 1.0f);
  EXPECT_EQ(x.at(1, 2), 3.0f);
}

TEST(Ops, SumRows) {
  const Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor s = fuse::tensor::sum_rows(x);
  EXPECT_FLOAT_EQ(s[0], 5.0f);
  EXPECT_FLOAT_EQ(s[2], 9.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  fuse::util::Rng rng(2);
  const Tensor x = random_tensor({5, 7}, rng, -5.0f, 5.0f);
  const Tensor y = fuse::tensor::softmax_rows(x);
  for (std::size_t r = 0; r < 5; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < 7; ++c) {
      EXPECT_GT(y.at(r, c), 0.0f);
      s += y.at(r, c);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Ops, HadamardMultiplies) {
  const Tensor a({3}, {1.0f, 2.0f, 3.0f});
  const Tensor b({3}, {4.0f, 5.0f, 6.0f});
  const Tensor c = fuse::tensor::hadamard(a, b);
  EXPECT_FLOAT_EQ(c[2], 18.0f);
}

// ----------------------------------------------------------------- init --

TEST(Init, HeNormalStatistics) {
  fuse::util::Rng rng(23);
  Tensor t({200, 200});
  fuse::tensor::init_he_normal(t, 200, rng);
  EXPECT_NEAR(t.mean(), 0.0f, 0.01f);
  const float expected_std = std::sqrt(2.0f / 200.0f);
  const float measured_std =
      std::sqrt(t.squared_norm() / static_cast<float>(t.numel()));
  EXPECT_NEAR(measured_std, expected_std, 0.1f * expected_std);
}

TEST(Init, XavierUniformBounds) {
  fuse::util::Rng rng(29);
  Tensor t({100, 100});
  fuse::tensor::init_xavier_uniform(t, 100, 100, rng);
  const float bound = std::sqrt(6.0f / 200.0f);
  EXPECT_LE(t.max(), bound);
  EXPECT_GE(t.min(), -bound);
  EXPECT_NEAR(t.mean(), 0.0f, 0.01f);
}

// ------------------------------------------------------------- conv2d --

TEST(Conv2d, RejectsShapeMismatch) {
  const Tensor x({1, 2, 5, 5}), w({4, 2 * 3 * 3}), b({4});
  EXPECT_THROW(fuse::tensor::conv2d(x, Tensor({4, 10}), b, 3, 1),
               std::invalid_argument);
  EXPECT_THROW(fuse::tensor::conv2d(x, w, Tensor({3}), 3, 1),
               std::invalid_argument);
  EXPECT_THROW(fuse::tensor::conv2d(x, w, b, 7, 0), std::invalid_argument);
  Tensor xp, y, dx, gw({4, 18}), gb({4});
  fuse::tensor::conv2d(x, w, b, 3, 1, xp, y);
  EXPECT_THROW(fuse::tensor::conv2d_backward(xp, w, Tensor({1, 4, 4, 5}), 3,
                                             1, gw, gb, &dx),
               std::invalid_argument);
  Tensor bad_gw({4, 10});
  EXPECT_THROW(fuse::tensor::conv2d_backward(xp, w, Tensor({1, 4, 5, 5}), 3,
                                             1, bad_gw, gb, &dx),
               std::invalid_argument);
}

TEST(Ops, VectorizedElementwiseHandleLargeTensors) {
  // Sizes past the parallel-chunking threshold: results must match the
  // scalar definition regardless of how the range is split.
  fuse::util::Rng rng(34);
  const std::size_t n = (1 << 15) + 37;  // odd tail past the min chunk
  const Tensor x = random_tensor({n}, rng);
  const Tensor dy = random_tensor({n}, rng);
  const Tensor relu = fuse::tensor::relu(x);
  Tensor masked = dy;
  fuse::tensor::relu_backward_inplace(masked, relu);
  const Tensor prod = fuse::tensor::hadamard(x, dy);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(relu[i], x[i] > 0.0f ? x[i] : 0.0f);
    ASSERT_EQ(masked[i], x[i] > 0.0f ? dy[i] : 0.0f);
    ASSERT_EQ(prod[i], x[i] * dy[i]);
  }
}

}  // namespace
