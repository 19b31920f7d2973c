#include "core/finetune.h"

#include <algorithm>

#include "nn/loss.h"
#include "nn/optim.h"
#include "util/log.h"

namespace fuse::core {

using fuse::data::IndexSet;

float sgd_step(fuse::nn::Module& model, fuse::nn::Tape& tape,
               const fuse::tensor::Tensor& x, const fuse::tensor::Tensor& y,
               float lr, float grad_clip) {
  const auto& pred = model.forward(x, tape);
  fuse::nn::Tensor dpred;
  const float loss = fuse::nn::l1_loss(pred, y, &dpred);
  model.zero_grad();
  model.backward(dpred, tape, fuse::nn::InputGrad::kSkip);
  const auto grads = model.grads();
  if (grad_clip > 0.0f) fuse::nn::clip_grad_norm(grads, grad_clip);
  fuse::nn::Sgd(lr).step(model.params(), grads);
  return loss;
}

float sgd_step(fuse::nn::Module& model, const fuse::tensor::Tensor& x,
               const fuse::tensor::Tensor& y, float lr, float grad_clip) {
  fuse::nn::Tape tape;
  return sgd_step(model, tape, x, y, lr, grad_clip);
}

FineTuneCurve fine_tune(fuse::nn::Module& model,
                        const fuse::data::FusedDataset& fused,
                        const fuse::data::Featurizer& feat,
                        const IndexSet& finetune_indices,
                        const IndexSet& eval_new,
                        const IndexSet& eval_original,
                        const FineTuneConfig& cfg) {
  FineTuneCurve curve;
  curve.new_data_cm.reserve(cfg.epochs + 1);
  curve.original_cm.reserve(cfg.epochs + 1);

  auto record = [&] {
    curve.new_data_cm.push_back(
        evaluate(model, fused, feat, eval_new, cfg.eval_batch).average());
    curve.original_cm.push_back(
        evaluate(model, fused, feat, eval_original, cfg.eval_batch)
            .average());
  };
  record();  // epoch 0: before fine-tuning

  const auto params =
      cfg.last_layer_only ? model.last_layer_params() : model.params();
  const auto grads =
      cfg.last_layer_only ? model.last_layer_grads() : model.grads();
  fuse::nn::Sgd sgd(cfg.lr);
  fuse::nn::Adam adam(cfg.adam_lr);
  fuse::util::Rng rng(cfg.seed);

  IndexSet indices = finetune_indices;
  fuse::nn::Tape tape;
  fuse::nn::Tensor x, y, dpred;
  for (std::size_t e = 0; e < cfg.epochs; ++e) {
    rng.shuffle(indices);
    for (std::size_t pos = 0; pos < indices.size(); pos += cfg.batch_size) {
      const std::size_t hi = std::min(indices.size(), pos + cfg.batch_size);
      const IndexSet batch(
          indices.begin() + static_cast<std::ptrdiff_t>(pos),
          indices.begin() + static_cast<std::ptrdiff_t>(hi));
      feat.make_inputs(fused, batch, x);
      feat.make_labels(fused, batch, y);
      const auto& pred = model.forward(x, tape);
      (void)fuse::nn::l1_loss(pred, y, &dpred);
      model.zero_grad();
      model.backward(dpred, tape, fuse::nn::InputGrad::kSkip);
      if (cfg.grad_clip > 0.0f)
        fuse::nn::clip_grad_norm(grads, cfg.grad_clip);
      if (cfg.use_sgd) {
        sgd.step(params, grads);
      } else {
        adam.step(params, grads);
      }
    }
    record();
  }
  return curve;
}

}  // namespace fuse::core
