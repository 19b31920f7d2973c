// Tests for the Module graph API: the registry, Sequential composition,
// Conv2d against the per-sample reference convolution, parameter groups,
// const-correct copying, and architecture-checked serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/registry.h"
#include "nn/sequential.h"
#include "util/fault.h"
#include "util/rng.h"

namespace {

using fuse::nn::Tensor;

Tensor random_tensor(fuse::tensor::Shape shape, fuse::util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = rng.uniformf(-1, 1);
  return t;
}

fuse::nn::ModelConfig small_cfg(std::uint64_t seed) {
  fuse::nn::ModelConfig cfg;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------- registry --

TEST(Registry, ServesAtLeastThreeArchitectures) {
  const auto names = fuse::nn::registered_models();
  EXPECT_GE(names.size(), 3u);
  for (const char* required : {"mars_cnn", "mars_cnn_large", "mars_mlp"})
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << required;
}

TEST(Registry, EveryArchitectureRunsTheFullContract) {
  fuse::nn::Tape tape;
  fuse::util::Rng rng(1);
  const Tensor x = random_tensor({3, 5, 8, 8}, rng);
  const Tensor target = random_tensor({3, 57}, rng);
  for (const auto& name : fuse::nn::registered_models()) {
    const auto model = fuse::nn::build_model(name, small_cfg(7));
    EXPECT_EQ(model->arch_name(), name);
    EXPECT_GT(model->num_params(), 0u) << name;

    // forward/backward/infer shapes.
    const Tensor y = model->forward(x, tape);
    ASSERT_EQ(y.shape(), (fuse::tensor::Shape{3, 57})) << name;
    Tensor dy;
    (void)fuse::nn::l1_loss(y, target, &dy);
    model->zero_grad();
    model->backward(dy, tape);
    float gnorm = 0.0f;
    for (const Tensor* g : std::as_const(*model).grads())
      gnorm += g->squared_norm();
    EXPECT_GT(gnorm, 0.0f) << name;

    // infer is bit-identical to forward (they share the same kernels).
    const Tensor yi = model->infer(x);
    ASSERT_EQ(yi.shape(), y.shape()) << name;
    for (std::size_t i = 0; i < y.numel(); ++i)
      ASSERT_EQ(y[i], yi[i]) << name << " element " << i;

    // clone is deep and independent.
    const auto clone = model->clone();
    EXPECT_EQ(clone->arch_name(), name);
    (*clone->params()[0])[0] += 1.0f;
    EXPECT_NE((*clone->params()[0])[0], (*model->params()[0])[0]) << name;

    // param_groups cover exactly the flat parameter list, in order.
    std::size_t grouped = 0;
    for (const auto& g : model->param_groups()) grouped += g.params.size();
    EXPECT_EQ(grouped, model->params().size()) << name;
    EXPECT_EQ(model->last_layer_params().size(), 2u) << name;  // W + b
  }
}

TEST(Registry, UnknownArchitectureThrows) {
  EXPECT_THROW(fuse::nn::build_model("resnet152"), std::invalid_argument);
}

TEST(Registry, RuntimeRegistration) {
  fuse::nn::register_model("tiny_linear", [](const fuse::nn::ModelConfig& c) {
    fuse::util::Rng rng(c.seed);
    auto m = std::make_unique<fuse::nn::Sequential>("tiny_linear");
    m->add(fuse::nn::Flatten{});
    m->add(fuse::nn::Linear(c.in_channels * c.grid_h * c.grid_w, c.outputs,
                            rng));
    return m;
  });
  const auto model = fuse::nn::build_model("tiny_linear", small_cfg(3));
  fuse::util::Rng rng(4);
  const Tensor x = random_tensor({2, 5, 8, 8}, rng);
  EXPECT_EQ(model->infer(x).shape(), (fuse::tensor::Shape{2, 57}));
}

// -------------------------------------------------- Sequential equivalence --

TEST(Sequential, MarsCnnBitIdenticalToLegacyLayerComposition) {
  fuse::nn::Tape tape;
  // The registry-built mars_cnn must reproduce the original hand-rolled
  // model exactly: same RNG draw order at construction, same forward
  // arithmetic.  The reference composes the layers by hand in the legacy
  // order (conv1, conv2, fc1, fc2 constructed first, ReLU/Flatten free),
  // with the per-sample reference convolution in place of Conv2d.
  constexpr std::uint64_t kSeed = 1234;
  fuse::util::Rng rng_ref(kSeed);
  fuse::nn::Conv2d conv1(5, 16, 3, 1, rng_ref);
  fuse::nn::Conv2d conv2(16, 32, 3, 1, rng_ref);
  fuse::nn::Linear fc1(32 * 8 * 8, 512, rng_ref);
  fuse::nn::Linear fc2(512, 57, rng_ref);

  const auto built = fuse::nn::build_model("mars_cnn", {.seed = kSeed});
  fuse::nn::Module& model = *built;

  fuse::util::Rng rng_x(99);
  const Tensor x = random_tensor({4, 5, 8, 8}, rng_x);

  fuse::nn::ReLU r1, r2, r3;
  fuse::nn::Flatten fl;
  Tensor ref = fuse::nn::conv2d_reference_forward(conv1, x);
  ref = r1.forward(ref, tape);
  ref = fuse::nn::conv2d_reference_forward(conv2, ref);
  ref = r2.forward(ref, tape);
  ref = fl.forward(ref, tape);
  ref = fc1.forward(ref, tape);
  ref = r3.forward(ref, tape);
  ref = fc2.forward(ref, tape);

  const Tensor got_fwd = model.forward(x, tape);
  const Tensor got_inf = model.infer(x);
  ASSERT_EQ(got_fwd.shape(), ref.shape());
  for (std::size_t i = 0; i < ref.numel(); ++i) {
    ASSERT_EQ(got_fwd[i], ref[i]) << "forward element " << i;
    ASSERT_EQ(got_inf[i], ref[i]) << "infer element " << i;
  }
}

TEST(Sequential, CopyIsDeep) {
  const auto a = fuse::nn::build_model("mars_mlp", small_cfg(5));
  auto* seq = dynamic_cast<fuse::nn::Sequential*>(a.get());
  ASSERT_NE(seq, nullptr);
  fuse::nn::Sequential b = *seq;  // value semantics through the container
  (*b.params()[0])[0] += 2.0f;
  EXPECT_NE((*b.params()[0])[0], (*seq->params()[0])[0]);
}

// --------------------------------------------- reference convolution --

// Layers start with zero biases, where adding the bias first or last gives
// the same bits; random biases make the accumulation order observable.
void randomize_biases(fuse::nn::Module& model, fuse::util::Rng& rng) {
  for (Tensor* p : model.params())
    if (p->ndim() == 1)
      for (std::size_t i = 0; i < p->numel(); ++i)
        (*p)[i] = rng.uniformf(-1, 1);
}

void expect_bits_equal(const Tensor& got, const Tensor& want,
                       const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.numel() * sizeof(float)),
            0)
      << what;
}

TEST(ReferenceConv, EveryModelInferEqualsTheReferenceComposition) {
  // Each registered model's infer, at batch 1, 3, 8 and 17, against the
  // same Sequential run child by child with every Conv2d replaced by the
  // per-sample reference.
  fuse::util::Rng rng(42);
  for (const auto& name : fuse::nn::registered_models()) {
    const auto model = fuse::nn::build_model(name, small_cfg(21));
    randomize_biases(*model, rng);
    auto* seq = dynamic_cast<fuse::nn::Sequential*>(model.get());
    ASSERT_NE(seq, nullptr) << name;
    for (const std::size_t batch : {1u, 3u, 8u, 17u}) {
      const Tensor x = random_tensor({batch, 5, 8, 8}, rng);
      Tensor ref = x;
      for (std::size_t i = 0; i < seq->size(); ++i) {
        const auto* conv =
            dynamic_cast<const fuse::nn::Conv2d*>(&seq->child(i));
        ref = conv ? fuse::nn::conv2d_reference_forward(*conv, ref)
                   : seq->child(i).infer(ref);
      }
      expect_bits_equal(model->infer(x), ref,
                        name + " batch " + std::to_string(batch));
    }
  }
}

TEST(ReferenceConv, ForwardAndInferEqualTheReferenceOnRaggedShapes) {
  fuse::nn::Tape tape;
  // Odd channel/filter counts exercise the tile-tail paths of the GEMM
  // kernel; odd spatial sizes and pad 0/1/2 exercise the padding.
  fuse::util::Rng rng(43);
  for (const auto& [cin, cout, hw, pad] :
       {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>{
            3, 5, 7, 1},
        {1, 1, 8, 1}, {2, 34, 5, 1}, {7, 9, 11, 1}, {3, 5, 7, 2},
        {1, 1, 8, 0}, {5, 16, 8, 1}, {16, 32, 8, 1}}) {
    fuse::nn::Conv2d conv(cin, cout, 3, pad, rng);
    randomize_biases(conv, rng);
    for (const std::size_t batch : {1u, 5u, 17u}) {
      const Tensor x = random_tensor({batch, cin, hw, hw}, rng);
      const Tensor ref = fuse::nn::conv2d_reference_forward(conv, x);
      const std::string what = std::to_string(cin) + "x" +
                               std::to_string(cout) + "@" +
                               std::to_string(hw) + " pad " +
                               std::to_string(pad) + " batch " +
                               std::to_string(batch);
      expect_bits_equal(conv.infer(x), ref, "infer " + what);
      expect_bits_equal(conv.forward(x, tape), ref, "forward " + what);
    }
  }
}

// ------------------------------------------------------------ const access --

TEST(Module, ConstCorrectCopyAndCount) {
  const auto a = fuse::nn::build_model("mars_cnn", small_cfg(8));
  auto b = fuse::nn::build_model("mars_cnn", small_cfg(9));
  const fuse::nn::Module& a_const = *a;  // copy source is const
  b->copy_params_from(a_const);
  EXPECT_EQ(a_const.num_params(), b->num_params());  // num_params() is const
  const auto pa = a_const.params();
  const auto pb = std::as_const(*b).params();
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::size_t k = 0; k < pa[i]->numel(); ++k)
      ASSERT_EQ((*pa[i])[k], (*pb[i])[k]);
}

TEST(Module, CopyParamsFromMismatchedArchitectureThrows) {
  const auto cnn = fuse::nn::build_model("mars_cnn", small_cfg(1));
  const auto mlp = fuse::nn::build_model("mars_mlp", small_cfg(1));
  EXPECT_THROW(mlp->copy_params_from(*cnn), std::invalid_argument);
}

// ----------------------------------------------------------- serialization --

/// Parameters compared by their bits: a float == would pass +0.0 against
/// -0.0 and fail NaN against itself.
void expect_params_bitwise_equal(const fuse::nn::Module& a,
                                 const fuse::nn::Module& b) {
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->shape(), pb[i]->shape());
    EXPECT_EQ(std::memcmp(pa[i]->data(), pb[i]->data(),
                          pa[i]->numel() * sizeof(float)),
              0)
        << "tensor " << i << " differs in bits";
  }
}

TEST(Serialization, RoundTripForEveryRegisteredArchitecture) {
  // One -0.0f and one NaN with a payload: a checkpoint is a raw fp32 dump,
  // so both must come back bit for bit.
  const std::uint32_t nan_bits = 0x7fc01234u;
  float nan;
  std::memcpy(&nan, &nan_bits, sizeof(nan));
  for (const auto& name : fuse::nn::registered_models()) {
    SCOPED_TRACE(name);
    const auto a = fuse::nn::build_model(name, small_cfg(31));
    (*a->params().front())[0] = -0.0f;
    (*a->params().back())[0] = nan;
    std::stringstream ss;
    a->save(ss);
    // Load into a differently-seeded instance of the same architecture.
    const auto b = fuse::nn::build_model(name, small_cfg(32));
    b->load(ss);
    expect_params_bitwise_equal(*a, *b);
    EXPECT_TRUE(std::signbit((*b->params().front())[0]));
  }
}

TEST(Serialization, SameLengthOtherShapesThrowAndLeaveModelIntact) {
  // Same architecture tag and payload length, shapes that differ only
  // after the first tensor: load checks every shape header before it
  // copies a single value.
  fuse::util::Rng rng(5);
  const auto build = [&](std::size_t a, std::size_t b) {
    fuse::nn::Sequential m;
    m.add(fuse::nn::Linear(2, 2, rng));
    m.add(fuse::nn::Linear(a, b, rng));
    m.add(fuse::nn::Linear(b, a, rng));
    return m;
  };
  const auto src = build(3, 5);
  auto dst = build(5, 3);
  const auto before = dst;
  std::stringstream ss;
  src.save(ss);
  try {
    dst.load(ss);
    FAIL() << "mismatched shapes loaded without error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shape"), std::string::npos)
        << e.what();
  }
  expect_params_bitwise_equal(before, dst);
}

TEST(Serialization, SaveFileFailsLoudlyAndKeepsThePreviousFile) {
  // save_file writes through util::write_file_atomic: a failed write
  // throws and leaves the previous checkpoint loadable, and a torn one
  // (the rename landed, the data did not) throws at load_file.
  using fuse::util::FaultConfig;
  using fuse::util::FaultPoint;
  const std::string path = ::testing::TempDir() + "fuse_module_save_file";
  const auto first = fuse::nn::build_model("mars_mlp", small_cfg(21));
  const auto second = fuse::nn::build_model("mars_mlp", small_cfg(22));
  const auto back = fuse::nn::build_model("mars_mlp", small_cfg(23));
  first->save_file(path);
  FaultConfig disk;
  disk.p(FaultPoint::kDiskWrite) = 1.0;
  {
    fuse::util::ScopedFaults faults(disk);
    EXPECT_THROW(second->save_file(path), std::runtime_error);
  }
  back->load_file(path);
  expect_params_bitwise_equal(*first, *back);

  FaultConfig torn;
  torn.p(FaultPoint::kTornWrite) = 1.0;
  {
    fuse::util::ScopedFaults faults(torn);
    second->save_file(path);
  }
  EXPECT_THROW(back->load_file(path), std::runtime_error);
  expect_params_bitwise_equal(*first, *back);  // the failed load committed nothing
  std::filesystem::remove(path);
}

TEST(Serialization, MismatchedArchitectureLoadThrows) {
  const auto names = fuse::nn::registered_models();
  const auto src = fuse::nn::build_model("mars_cnn", small_cfg(1));
  std::stringstream ss;
  src->save(ss);
  for (const auto& name : names) {
    if (name == "mars_cnn") continue;
    SCOPED_TRACE(name);
    const auto dst = fuse::nn::build_model(name, small_cfg(1));
    std::stringstream copy(ss.str());
    EXPECT_THROW(dst->load(copy), std::runtime_error);
  }
}

TEST(Serialization, GarbageStreamThrowsInsteadOfMisloading) {
  const auto model = fuse::nn::build_model("mars_cnn", small_cfg(1));
  std::stringstream garbage("definitely not a model file");
  EXPECT_THROW(model->load(garbage), std::runtime_error);
  std::stringstream empty;
  EXPECT_THROW(model->load(empty), std::runtime_error);
}

TEST(Serialization, BitFlippedPayloadThrowsAndLeavesModelIntact) {
  fuse::util::Rng rng(55);
  const Tensor x = random_tensor({2, 5, 8, 8}, rng);
  const auto model = fuse::nn::build_model("mars_cnn", small_cfg(11));
  const Tensor before = model->infer(x);
  std::stringstream ss;
  model->save(ss);
  std::string blob = ss.str();
  // Flip one bit deep inside the parameter payload — without the checksum
  // footer this would silently load a corrupted weight.
  blob[blob.size() - 7] ^= 0x10;
  std::stringstream corrupt(blob);
  try {
    model->load(corrupt);
    FAIL() << "corrupt payload loaded without error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
  // The failed load committed nothing.
  const Tensor after = model->infer(x);
  for (std::size_t i = 0; i < before.numel(); ++i)
    ASSERT_EQ(before[i], after[i]) << "element " << i;
  // The pristine blob still round-trips.
  std::stringstream pristine(ss.str());
  EXPECT_NO_THROW(model->load(pristine));
}

TEST(Serialization, TruncatedPayloadThrowsAtEveryCut) {
  const auto model = fuse::nn::build_model("mars_mlp", small_cfg(12));
  std::stringstream ss;
  model->save(ss);
  const std::string blob = ss.str();
  // Cut the stream inside the header, inside the footer, and at several
  // depths of the payload; every prefix must throw, never misload.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{20}, blob.size() / 2, blob.size() - 1}) {
    SCOPED_TRACE(keep);
    std::stringstream cut(blob.substr(0, keep));
    const auto dst = fuse::nn::build_model("mars_mlp", small_cfg(13));
    EXPECT_THROW(dst->load(cut), std::runtime_error);
  }
}

TEST(Serialization, WrongPayloadLengthIsCorruption) {
  const auto model = fuse::nn::build_model("mars_cnn", small_cfg(14));
  std::stringstream ss;
  model->save(ss);
  std::string blob = ss.str();
  // The stored payload length sits right after the 8-byte magic and the
  // u64-prefixed architecture tag; shrink it by one.
  const std::size_t len_off = 8 + 8 + model->arch_name().size();
  blob[len_off] = static_cast<char>(blob[len_off] - 1);
  std::stringstream corrupt(blob);
  try {
    model->load(corrupt);
    FAIL() << "wrong payload length loaded without error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("length"), std::string::npos)
        << e.what();
  }
}

}  // namespace
