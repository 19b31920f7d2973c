#pragma once
// Supervised trainer — the MARS baseline training loop (Section 4.1):
// mini-batch Adam on the L1 joint-coordinate loss.

#include <cstddef>
#include <vector>

#include "core/metrics.h"
#include "data/featurize.h"
#include "data/fusion.h"
#include "nn/module.h"
#include "nn/optim.h"
#include "util/rng.h"

namespace fuse::core {

struct TrainConfig {
  std::size_t epochs = 150;     ///< paper default
  std::size_t batch_size = 128; ///< paper default
  float lr = 1e-3f;
  float grad_clip = 10.0f;      ///< global-norm clip (0 disables)
  std::uint64_t seed = 1;
  bool verbose = false;
  /// Evaluate on this index set after each epoch when non-empty.
  fuse::data::IndexSet eval_indices;
};

struct TrainHistory {
  std::vector<float> train_loss;   ///< mean L1 loss per epoch (normalized)
  std::vector<double> eval_mae_cm; ///< per-epoch eval MAE (if requested)
};

class Trainer {
 public:
  Trainer(fuse::nn::Module* model, TrainConfig cfg)
      : model_(model), cfg_(cfg), optim_(cfg.lr), rng_(cfg.seed) {}

  /// Trains on the given fused-sample indices; returns per-epoch history.
  /// Its steps share one tape and one set of batch tensors, so after the
  /// first full batch a step allocates nothing of size.
  TrainHistory fit(const fuse::data::FusedDataset& fused,
                   const fuse::data::Featurizer& feat,
                   const fuse::data::IndexSet& train_indices);

 private:
  /// What the steps of one fit() reuse.
  struct StepBuffers {
    fuse::nn::Tape tape;
    fuse::nn::Tensor x, y, dpred;
  };

  /// One epoch over the given indices; returns the mean batch loss.
  float run_epoch(const fuse::data::FusedDataset& fused,
                  const fuse::data::Featurizer& feat,
                  fuse::data::IndexSet indices, StepBuffers& buf);

  fuse::nn::Module* model_;
  TrainConfig cfg_;
  fuse::nn::Adam optim_;
  fuse::util::Rng rng_;
};

}  // namespace fuse::core
