#pragma once
// Online fine-tuning phase (Section 3.3.3 / 4.3): adapt a deployed model to
// an unseen (subject, movement) pair using a small fine-tuning set, while
// tracking MAE on both the new data and the original data after every epoch
// — the measurements behind Figures 3-4 and Table 2.

#include <cstddef>

#include "core/metrics.h"
#include "data/featurize.h"
#include "data/fusion.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace fuse::core {

/// One SGD step on an explicit featurized batch: forward, L1 loss against
/// `y`, backward, clip, theta -= lr * grad.  Returns the pre-step batch
/// loss.  This is the MAML inner update (Eq. 5) applied to deployment
/// data; the serving runtime's per-session online adaptation
/// (serve::Shard, one tape per shard) is built on it.  The step's
/// activations go to `tape`, whose storage the caller reuses across
/// steps.  fine_tune() below keeps its own step loop because it also
/// supports Adam and last-layer-only updates.
float sgd_step(fuse::nn::Module& model, fuse::nn::Tape& tape,
               const fuse::tensor::Tensor& x, const fuse::tensor::Tensor& y,
               float lr, float grad_clip = 10.0f);
/// sgd_step() on a tape of its own, for a one-off step.
float sgd_step(fuse::nn::Module& model, const fuse::tensor::Tensor& x,
               const fuse::tensor::Tensor& y, float lr,
               float grad_clip = 10.0f);

struct FineTuneConfig {
  std::size_t epochs = 50;      ///< the paper's curves run to 50
  std::size_t batch_size = 64;
  /// Online fine-tuning uses plain SGD at the meta inner-loop rate alpha —
  /// matching the MAML-PyTorch implementation the paper builds on, where
  /// deployment-time "finetunning" replays the inner update rule.  MAML's
  /// guarantee is specifically about progress under these steps; both the
  /// baseline and FUSE are fine-tuned identically for fairness.
  bool use_sgd = true;
  float lr = 0.02f;             ///< SGD rate (= MetaConfig::alpha default)
  float adam_lr = 1e-3f;        ///< used when use_sgd == false
  bool last_layer_only = false; ///< Figure 4 regime
  float grad_clip = 10.0f;
  std::uint64_t seed = 11;
  std::size_t eval_batch = 256;
};

/// Fine-tunes `model` in place on `finetune_indices` and returns the
/// per-epoch MAE curves; entry 0 of each curve is the pre-fine-tuning MAE.
///
/// `eval_new` is the held-out evaluation set (rest of D_test), and
/// `eval_original` a (possibly subsampled) slice of the original training
/// data used to measure forgetting.
FineTuneCurve fine_tune(fuse::nn::Module& model,
                        const fuse::data::FusedDataset& fused,
                        const fuse::data::Featurizer& feat,
                        const fuse::data::IndexSet& finetune_indices,
                        const fuse::data::IndexSet& eval_new,
                        const fuse::data::IndexSet& eval_original,
                        const FineTuneConfig& cfg);

}  // namespace fuse::core
