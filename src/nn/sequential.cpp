#include "nn/sequential.h"

#include <stdexcept>

namespace fuse::nn {

Sequential::Sequential(const Sequential& other)
    : Module(other), arch_name_(other.arch_name_) {
  children_.reserve(other.children_.size());
  for (const auto& c : other.children_) children_.push_back(c->clone());
}

Sequential& Sequential::operator=(const Sequential& other) {
  if (this == &other) return *this;
  Module::operator=(other);
  arch_name_ = other.arch_name_;
  children_.clear();
  children_.reserve(other.children_.size());
  for (const auto& c : other.children_) children_.push_back(c->clone());
  return *this;
}

Sequential& Sequential::append(std::unique_ptr<Module> child) {
  if (!child) throw std::invalid_argument("Sequential::append: null child");
  children_.push_back(std::move(child));
  return *this;
}

Tensor Sequential::forward(const Tensor& x) {
  if (children_.empty()) return x;
  Tensor h = children_.front()->forward(x);
  for (std::size_t i = 1; i < children_.size(); ++i)
    h = children_[i]->forward(h);
  return h;
}

Tensor Sequential::backward(const Tensor& dy) {
  Tensor d = dy;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it)
    d = (*it)->backward(d);
  return d;
}

Tensor Sequential::do_infer(const Tensor& x) const {
  return infer_children(0, children_.size(), x);
}

Tensor Sequential::infer_children(std::size_t begin, std::size_t end,
                                  const Tensor& x) const {
  if (begin > end || end > children_.size())
    throw std::out_of_range("Sequential::infer_children: bad child range");
  if (begin == end) return x;
  // The first child reads the caller's tensor directly; afterwards the
  // activation is ours, so stateless elementwise/shape children mutate it
  // in place (no allocation) via the in-place hook.
  Tensor h = children_[begin]->do_infer(x);
  for (std::size_t i = begin + 1; i < end; ++i) {
    if (!children_[i]->do_infer_inplace(h))
      h = children_[i]->do_infer(h);
  }
  return h;
}

std::vector<Tensor*> Sequential::params() {
  std::vector<Tensor*> out;
  for (const auto& c : children_)
    for (Tensor* t : c->params()) out.push_back(t);
  return out;
}

std::vector<Tensor*> Sequential::grads() {
  std::vector<Tensor*> out;
  for (const auto& c : children_)
    for (Tensor* t : c->grads()) out.push_back(t);
  return out;
}

std::vector<ParamGroup> Sequential::param_groups() {
  std::vector<ParamGroup> out;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    auto child_params = children_[i]->params();
    if (child_params.empty()) continue;
    ParamGroup g;
    g.name = std::to_string(i) + ":" + children_[i]->arch_name();
    g.params = std::move(child_params);
    g.grads = children_[i]->grads();
    out.push_back(std::move(g));
  }
  return out;
}

}  // namespace fuse::nn
