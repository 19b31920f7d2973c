#include "nn/tape.h"

#include <stdexcept>

namespace fuse::nn {

Tape::Record& Tape::push(const Module& layer) {
  if (top_ == records_.size()) records_.emplace_back();
  Record& r = records_[top_++];
  r.layer = &layer;
  r.read = nullptr;
  return r;
}

Tape::Record& Tape::pop(const Module& layer) {
  if (top_ == 0 || records_[top_ - 1].layer != &layer)
    throw std::logic_error(
        "nn::Tape: backward without a matching forward on this tape (run "
        "forward() through the same module first)");
  return records_[--top_];
}

Tensor* Tape::own_activation(const Tensor& x) {
  for (std::size_t i = 0; i < top_; ++i)
    if (&records_[i].out == &x) return &records_[i].out;
  return nullptr;
}

Tensor* Tape::own_grad(const Tensor& dy) {
  for (Tensor& g : grads_)
    if (&g == &dy) return &g;
  return nullptr;
}

}  // namespace fuse::nn
