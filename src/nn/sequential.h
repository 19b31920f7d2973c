#pragma once
// Sequential — the Module container.
//
// A Sequential owns an ordered list of child Modules and implements the
// whole Module contract by composition: forward/backward chain through the
// children, params/grads concatenate in forward order, param_groups yields
// one named group per parameterised child (so "last layer" is architecture
// -independent), and infer() threads a cache-free activation through the
// children, using their in-place hooks to avoid copies for ReLU/Flatten.
//
// Copying a Sequential deep-copies every child (via Module::clone), which
// preserves the value semantics the MAML inner loop relies on — the
// registry's networks (nn/registry.h) are plain Sequentials and stay cheap
// to clone per task.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.h"

namespace fuse::nn {

class Sequential : public Module {
 public:
  explicit Sequential(std::string arch_name = "sequential")
      : arch_name_(std::move(arch_name)) {}

  Sequential(const Sequential& other);
  Sequential& operator=(const Sequential& other);
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Appends a child; returns *this for chaining.
  Sequential& append(std::unique_ptr<Module> child);
  /// Appends a layer by value (moves it into the container).
  template <typename M>
  Sequential& add(M layer) {
    return append(std::make_unique<M>(std::move(layer)));
  }

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_.at(i); }
  const Module& child(std::size_t i) const { return *children_.at(i); }

  // ------------------------------------------------------------- Module --
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  std::vector<ParamGroup> param_groups() override;
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<Sequential>(*this);
  }
  std::string arch_name() const override { return arch_name_; }

  /// infer() through children [begin, end) only (the serving trunk is
  /// every child but the last); infer() is the whole range.
  Tensor infer_children(std::size_t begin, std::size_t end,
                        const Tensor& x) const;

 protected:
  Tensor do_infer(const Tensor& x) const override;

 private:
  std::string arch_name_;
  std::vector<std::unique_ptr<Module>> children_;
};

}  // namespace fuse::nn
