#include "core/trainer.h"

#include <algorithm>

#include "nn/loss.h"
#include "util/log.h"

namespace fuse::core {

using fuse::data::IndexSet;

float Trainer::run_epoch(const fuse::data::FusedDataset& fused,
                         const fuse::data::Featurizer& feat,
                         IndexSet indices, StepBuffers& buf) {
  rng_.shuffle(indices);
  double loss_acc = 0.0;
  std::size_t n_batches = 0;
  const auto params = model_->params();
  const auto grads = model_->grads();

  for (std::size_t pos = 0; pos < indices.size(); pos += cfg_.batch_size) {
    const std::size_t hi = std::min(indices.size(), pos + cfg_.batch_size);
    const IndexSet batch(indices.begin() + static_cast<std::ptrdiff_t>(pos),
                         indices.begin() + static_cast<std::ptrdiff_t>(hi));
    feat.make_inputs(fused, batch, buf.x);
    feat.make_labels(fused, batch, buf.y);

    const auto& pred = model_->forward(buf.x, buf.tape);
    const float loss = fuse::nn::l1_loss(pred, buf.y, &buf.dpred);
    model_->zero_grad();
    model_->backward(buf.dpred, buf.tape, fuse::nn::InputGrad::kSkip);
    if (cfg_.grad_clip > 0.0f)
      fuse::nn::clip_grad_norm(grads, cfg_.grad_clip);
    optim_.step(params, grads);

    loss_acc += loss;
    ++n_batches;
  }
  return n_batches > 0 ? static_cast<float>(loss_acc / n_batches) : 0.0f;
}

TrainHistory Trainer::fit(const fuse::data::FusedDataset& fused,
                          const fuse::data::Featurizer& feat,
                          const IndexSet& train_indices) {
  TrainHistory hist;
  hist.train_loss.reserve(cfg_.epochs);
  StepBuffers buf;
  for (std::size_t e = 0; e < cfg_.epochs; ++e) {
    const float loss = run_epoch(fused, feat, train_indices, buf);
    hist.train_loss.push_back(loss);
    if (!cfg_.eval_indices.empty()) {
      const MaeCm mae = evaluate(*model_, fused, feat, cfg_.eval_indices);
      hist.eval_mae_cm.push_back(mae.average());
      if (cfg_.verbose)
        FUSE_LOG_INFO("epoch %zu/%zu  loss %.4f  eval %.2f cm", e + 1,
                      cfg_.epochs, loss, mae.average());
    } else if (cfg_.verbose) {
      FUSE_LOG_INFO("epoch %zu/%zu  loss %.4f", e + 1, cfg_.epochs, loss);
    }
  }
  return hist;
}

}  // namespace fuse::core
