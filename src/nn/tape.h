#pragma once
// nn::Tape — the activations of a training step, owned by the caller.
//
// A step is forward, loss, backward.  Backward needs some of forward's
// activations: a Linear's input, a ReLU's output, a Conv2d's zero-padded
// input.  The tape holds them, one record per layer forward ran, plus the
// two gradient buffers backward ping-pongs between.  Layers keep nothing
// between forward and backward, so a model and its clones carry
// parameters and gradients only, and one model can step on several tapes
// (MetaTrainer keeps one per task worker).
//
// Reuse.  A tape keeps its storage across steps: each record and buffer
// is resized within its capacity (Tensor::resize), so once a step at the
// largest batch has run, later steps allocate nothing of size, and a
// smaller batch (an epoch's short last one) reuses the same blocks.  A
// kernel that accumulates into its output (the convolution's input
// gradient, a scatter-add) zeroes the buffer first; every other output is
// written whole.
//
// In place.  ReLU and Flatten rewrite their input when it is the tape's
// own storage (an earlier record's output, or a gradient buffer), and copy
// it otherwise, so a caller's tensor is never written.  This is sound
// because no layer's backward reads its own output except ReLU, and a
// rewrite that follows a ReLU keeps its mask (ReLU again, or a reshape).
//
// Lifetime.  Module::forward returns a reference into the tape, valid
// until the next forward through it; backward reads the forward's input
// in place, so the caller keeps that tensor alive and unchanged until
// backward returns.

#include <cstddef>
#include <deque>

#include "tensor/tensor.h"

namespace fuse::nn {

using fuse::tensor::Shape;
using fuse::tensor::Tensor;

class Module;

class Tape {
 public:
  /// What one layer's forward left for its backward.
  struct Record {
    const Module* layer = nullptr;  ///< the layer that pushed it
    /// A tensor backward reads where it lies: Linear's input, ReLU's
    /// output (its input's storage when it ran in place).
    const Tensor* read = nullptr;
    Tensor out;    ///< output storage
    Tensor saved;  ///< Conv2d: its input, zero-padded
    Shape shape;   ///< Flatten: its input's shape
  };

  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;
  Tape(Tape&&) = default;
  Tape& operator=(Tape&&) = default;

  // ------------------------------------------------------- layer side --
  /// Starts a forward: records are reused from the first one on.
  void rewind() { top_ = 0; }
  /// The next record of a forward, for `layer`; its storage is kept from
  /// earlier steps.
  Record& push(const Module& layer);
  /// The record `layer`'s forward pushed, last in first out; throws
  /// std::logic_error when the tape holds no forward of `layer` there (a
  /// backward with no forward, or through a different module).
  Record& pop(const Module& layer);

  /// `x` as writable storage when it is an output recorded in this
  /// forward; nullptr for any other tensor (the caller's).
  Tensor* own_activation(const Tensor& x);
  /// `dy` as writable storage when it is one of the gradient buffers;
  /// nullptr for any other tensor (the caller's).
  Tensor* own_grad(const Tensor& dy);
  /// The gradient buffer that is not `dy`: where a layer writes its dx.
  Tensor& grad_for(const Tensor& dy) {
    return &dy == &grads_[0] ? grads_[1] : grads_[0];
  }
  /// The empty tensor a backward returns when its dx was not asked for.
  const Tensor& no_grad() const { return none_; }

 private:
  std::deque<Record> records_;  // a deque: records never move
  std::size_t top_ = 0;         // records in use by the current step
  Tensor grads_[2];
  Tensor none_;
};

}  // namespace fuse::nn
