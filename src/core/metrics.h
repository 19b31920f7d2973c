#pragma once
// Evaluation metrics and curve utilities for the FUSE experiments.

#include <cstddef>
#include <vector>

#include "data/featurize.h"
#include "data/fusion.h"
#include "nn/module.h"

namespace fuse::core {

/// Per-axis mean absolute error, in centimetres (the paper's Table 1/2 unit).
struct MaeCm {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  double average() const { return (x + y + z) / 3.0; }
};

/// Evaluates a model on the given fused-sample indices (batched inference).
MaeCm evaluate(const fuse::nn::Module& model,
               const fuse::data::FusedDataset& fused,
               const fuse::data::Featurizer& feat,
               const fuse::data::IndexSet& indices,
               std::size_t batch_size = 256);

/// Per-joint MAE (cm, averaged over axes) — used by the rehab example.
std::vector<double> per_joint_mae_cm(const fuse::nn::Module& model,
                                     const fuse::data::FusedDataset& fused,
                                     const fuse::data::Featurizer& feat,
                                     const fuse::data::IndexSet& indices,
                                     std::size_t batch_size = 256);

/// MAE-vs-epoch curves for a fine-tuning run (index 0 = before any
/// fine-tuning), on the new (held-out) data and on the original data.
struct FineTuneCurve {
  std::vector<double> new_data_cm;
  std::vector<double> original_cm;
};

/// The paper's "intersection" of two new-data curves, `a` the baseline's
/// and `b` FUSE's: where b first drops below a, then the first epoch from
/// there at which a catches back up (a[e] <= b[e]).
struct Intersection {
  enum class Outcome {
    kCrossed,                ///< FUSE led, and the baseline caught up
    kBaselineNeverCaughtUp,  ///< FUSE led to the end of the curves
    kFuseNeverAhead,         ///< b never dropped below a: no lead at all
  };
  Outcome outcome = Outcome::kFuseNeverAhead;
  /// kCrossed: the epoch the baseline caught up; otherwise the curves'
  /// common length.
  std::size_t epoch = 0;
};
Intersection intersection_epoch(const std::vector<double>& a,
                                const std::vector<double>& b);

}  // namespace fuse::core
