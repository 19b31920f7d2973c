#include "nn/optim.h"

#include <cmath>
#include <stdexcept>

namespace fuse::nn {

void Sgd::step(const std::vector<Tensor*>& params,
               const std::vector<Tensor*>& grads) const {
  if (params.size() != grads.size())
    throw std::invalid_argument("Sgd::step: list size mismatch");
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i]->add_scaled(*grads[i], -lr_);
}

void Adam::step(const std::vector<Tensor*>& params,
                const std::vector<Tensor*>& grads) {
  if (params.size() != grads.size())
    throw std::invalid_argument("Adam::step: list size mismatch");
  if (m_.empty()) {
    for (const Tensor* p : params) {
      m_.emplace_back(p->shape());
      v_.emplace_back(p->shape());
    }
  }
  if (m_.size() != params.size())
    throw std::invalid_argument("Adam::step: parameter list changed size");

  ++t_;
  const float bc1 =
      1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 =
      1.0f - std::pow(beta2_, static_cast<float>(t_));
  // Raw restrict pointers and -fno-math-errno (CMakeLists.txt) let GCC
  // vectorise this loop: with errno semantics std::sqrt is a call that may
  // clobber memory.  Every operation is an IEEE-exact lane-wise op in the
  // same order as the scalar loop, so the bits do not change.
  const float beta1 = beta1_, beta2 = beta2_, lr = lr_, eps = eps_;
  const float one_m_beta1 = 1.0f - beta1, one_m_beta2 = 1.0f - beta2;
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i]->shape() != m_[i].shape())
      throw std::invalid_argument("Adam::step: parameter shape changed");
    float* __restrict p = params[i]->data();
    const float* __restrict g = grads[i]->data();
    float* __restrict m = m_[i].data();
    float* __restrict v = v_[i].data();
    const std::size_t n = params[i]->numel();
    for (std::size_t k = 0; k < n; ++k) {
      m[k] = beta1 * m[k] + one_m_beta1 * g[k];
      v[k] = beta2 * v[k] + one_m_beta2 * g[k] * g[k];
      const float mhat = m[k] / bc1;
      const float vhat = v[k] / bc2;
      p[k] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
}

void Adam::reset_state() {
  m_.clear();
  v_.clear();
  t_ = 0;
}

void zero_grads(const std::vector<Tensor*>& grads) {
  for (Tensor* g : grads) g->zero();
}

float grad_norm(const std::vector<Tensor*>& grads) {
  double acc = 0.0;
  for (const Tensor* g : grads) acc += g->squared_norm();
  return static_cast<float>(std::sqrt(acc));
}

void clip_grad_norm(const std::vector<Tensor*>& grads, float max_norm) {
  const float norm = grad_norm(grads);
  if (norm <= max_norm || norm <= 0.0f) return;
  const float scale = max_norm / norm;
  for (Tensor* g : grads) *g *= scale;
}

}  // namespace fuse::nn
