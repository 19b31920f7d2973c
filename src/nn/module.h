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
// The contract mirrors the explicit-backward design of the layers: each
// layer writes its own backward, and a caller-owned nn::Tape (nn/tape.h)
// holds what a step's backward needs.
//  * forward(x, tape) records in the tape whatever backward() needs;
//    backward(dy, tape) reads it back, accumulates parameter gradients and
//    returns dL/dx, or skips dx when the caller has no use for it.  The
//    tape, not the model, owns the activations, and reuses their storage
//    from step to step.
//  * infer() is const and cache-free — the same kernels as forward(), so
//    bit-identical outputs — and one model instance can serve many reader
//    threads concurrently (the serving hot path).
//  * params()/grads() expose the learnable state as flat tensor lists in a
//    stable order; param_groups() additionally names coherent sub-lists
//    (one per parameterised layer) so regimes like last-layer fine-tuning
//    (Section 4.3.2) need no knowledge of the concrete architecture.
//  * clone() deep-copies the model's parameters and gradients — the MAML
//    inner loop adapts a per-task clone.  A model holds no activation, so
//    a clone carries none either.
//  * save()/load() serialize parameters behind an architecture-tag header
//    (FUSEMOD2, the one checkpoint format: models and per-user heads
//    alike); loading a file written by a different architecture throws
//    instead of silently misloading.

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/tape.h"
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

/// Whether backward() computes the gradient of the module's input.  A
/// trainer has no use for the gradient of its batch, and for the MARS CNN
/// it is half of conv1's backward.
enum class InputGrad {
  kCompute,
  kSkip,
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
  /// Training forward: x -> y, recording in `tape` what backward() needs
  /// (the tape is rewound first: it holds one step).  The result lives in
  /// the tape until its next forward; `x` is read again by backward(), so
  /// it must stay alive and unchanged until then.
  const Tensor& forward(const Tensor& x, Tape& tape) {
    tape.rewind();
    return do_forward(x, tape);
  }
  /// Backward from dL/dy through the forward recorded in `tape`:
  /// accumulates parameter gradients and returns dL/dx, held in the tape
  /// until its next backward.  With InputGrad::kSkip, dx is not computed
  /// and the result is empty.  Throws std::logic_error when the tape holds
  /// no forward of this module.
  const Tensor& backward(const Tensor& dy, Tape& tape,
                         InputGrad input = InputGrad::kCompute) {
    return do_backward(dy, tape, input);
  }

  /// Batched inference-only forward: no tape, nothing recorded, so it is
  /// const and safe to call concurrently from many threads on a shared
  /// model.  Bit-identical to forward() on the same input.
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
  /// Deep copy of parameters and gradients (a model holds nothing else).
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
  /// save() to memory, then util::write_file_atomic: a failed write throws
  /// and leaves the previous file in place; a torn one fails load_file.
  void save_file(const std::string& path) const;
  /// load() from a file; the kDiskRead fault site of every checkpoint read.
  void load_file(const std::string& path);

 protected:
  /// forward() and backward() without the rewind: containers chain their
  /// children through these on one tape, each child pushing its records
  /// in forward order and popping them in reverse.
  virtual const Tensor& do_forward(const Tensor& x, Tape& tape) = 0;
  virtual const Tensor& do_backward(const Tensor& dy, Tape& tape,
                                    InputGrad input) = 0;

  /// Inference; implementations must not mutate state.
  virtual Tensor do_infer(const Tensor& x) const = 0;

  /// Optional in-place inference step used by containers to avoid copies
  /// for stateless shape/elementwise modules (ReLU, Flatten).  Returns
  /// false when the module has no in-place path.
  virtual bool do_infer_inplace(Tensor& /*x*/) const { return false; }

  friend class Sequential;  // containers drive the do_* hooks
};

/// Validates one checkpoint file written by Module::save_file without
/// loading it: magic, FNV-1a checksum, and the architecture tag and
/// payload length `model` writes.  Returns the verified payload; throws
/// std::runtime_error otherwise.  The same kDiskRead site and reader as
/// Module::load_file.
std::string read_checkpoint_file(const std::string& path,
                                 const Module& model);

}  // namespace fuse::nn
