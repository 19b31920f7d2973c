#pragma once
// The abstract model interface of the NN library.
//
// The paper treats frame fusion as a pure pre-processing step precisely so
// the network stays swappable; fuse::nn::Module is that swap point.  Every
// layer and every composed network implements it, so the training loops
// (core::Trainer, core::MetaTrainer, core::fine_tune), the evaluation
// metrics and the serving runtime all operate on "a model" rather than on
// the concrete MARS CNN.  Concrete architectures are built by name through
// nn::build_model (see nn/registry.h).
//
// The contract mirrors the explicit-backward design of the layers (no
// tape):
//  * forward() caches whatever backward() needs; backward() accumulates
//    parameter gradients and returns dL/dx.
//  * infer() is const and cache-free — the same kernels as forward(), so
//    bit-identical outputs — and one model instance can serve many reader
//    threads concurrently (the serving hot path).
//  * params()/grads() expose the learnable state as flat tensor lists in a
//    stable order; param_groups() additionally names coherent sub-lists
//    (one per parameterised layer) so regimes like last-layer fine-tuning
//    (Section 4.3.2) need no knowledge of the concrete architecture.
//  * clone() deep-copies the model's parameters and gradients — the MAML
//    inner loop adapts a per-task clone.  Layer forward caches/scratch are
//    NOT copied (they are megabytes per conv layer and a clone never
//    reuses the parent's forward): run forward() on a clone before
//    backward().
//  * save()/load() serialize parameters behind an architecture-tag header;
//    loading a file written by a different architecture throws instead of
//    silently misloading.

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fuse::nn {

using fuse::tensor::Tensor;

/// A single-value tag that selects nothing: every layer runs one compute
/// path (the register-tiled GEMM of tensor/ops.h).  It stays
/// only because the benchmark harness under perfbench/ still passes it to
/// infer() and Predictor::predict() and sets ServeConfig::backend.
enum class Backend {
  kGemm,
};

/// A named, coherent slice of a model's parameters (typically one layer).
struct ParamGroup {
  std::string name;
  std::vector<Tensor*> params;
  std::vector<Tensor*> grads;
};

class Module {
 public:
  Module() = default;
  Module(const Module&) = default;
  Module& operator=(const Module&) = default;
  virtual ~Module() = default;

  // ------------------------------------------------------------ compute --
  /// Training forward: x -> y, caching activations for backward().
  virtual Tensor forward(const Tensor& x) = 0;
  /// Backward from dL/dy; accumulates parameter gradients, returns dL/dx.
  virtual Tensor backward(const Tensor& dy) = 0;

  /// Batched inference-only forward: no caches are touched, so it is const
  /// and safe to call concurrently from many threads on a shared model.
  /// Bit-identical to forward() on the same input.
  Tensor infer(const Tensor& x, Backend = Backend::kGemm) const {
    return do_infer(x);
  }

  // --------------------------------------------------------- parameters --
  /// Learnable parameters / their gradients, in a stable order.
  virtual std::vector<Tensor*> params() = 0;
  virtual std::vector<Tensor*> grads() = 0;
  /// Read-only views for const contexts (serialization, copying).
  std::vector<const Tensor*> params() const;
  std::vector<const Tensor*> grads() const;

  /// Named parameter groups, one per parameterised sub-layer, in forward
  /// order.  The default is a single group "all"; containers refine this.
  virtual std::vector<ParamGroup> param_groups();

  /// Parameters/gradients of the last parameterised layer (the last-layer
  /// fine-tuning regime of Section 4.3.2), derived from param_groups().
  std::vector<Tensor*> last_layer_params();
  std::vector<Tensor*> last_layer_grads();

  void zero_grad();
  std::size_t num_params() const;

  /// Copies parameter values from another model of identical architecture;
  /// throws std::invalid_argument on any mismatch.
  void copy_params_from(const Module& other);

  // -------------------------------------------------------------- clone --
  /// Deep copy of parameters and gradients; layer caches/scratch are
  /// dropped, so run forward() on a clone before backward().
  virtual std::unique_ptr<Module> clone() const = 0;

  /// Stable architecture tag used by the registry and the serialization
  /// header (e.g. "mars_cnn").
  virtual std::string arch_name() const = 0;

  // ------------------------------------------------------ serialization --
  /// Writes an architecture-tagged header, a payload length + FNV-1a
  /// checksum footer, then every parameter.
  void save(std::ostream& os) const;
  /// Loads a stream written by save(); throws std::runtime_error when the
  /// stored architecture tag, payload length, payload checksum or any
  /// parameter shape does not match this model (no silent misload — a
  /// truncated or bit-flipped checkpoint fails loudly).
  void load(std::istream& is);
  void save_file(const std::string& path) const;
  void load_file(const std::string& path);

 protected:
  /// Inference; implementations must not mutate state.
  virtual Tensor do_infer(const Tensor& x) const = 0;

  /// Optional in-place inference step used by containers to avoid copies
  /// for stateless shape/elementwise modules (ReLU, Flatten).  Returns
  /// false when the module has no in-place path.
  virtual bool do_infer_inplace(Tensor& /*x*/) const { return false; }

  friend class Sequential;  // containers drive do_infer/do_infer_inplace
};

}  // namespace fuse::nn
