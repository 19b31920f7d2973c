#pragma once
// Meta-training for mmWave pose estimation — Algorithm 1 of the paper.
//
// Each meta-iteration samples a batch of tasks from D_train (Definition 2).
// For every task the inner loop adapts a clone of the model on the task's
// support set with plain SGD at the sample-level rate alpha (Eq. 5), then
// evaluates the L1 loss of the *adapted* clone on the task's query set; the
// initial parameters are updated once per meta-iteration from the summed
// query losses (Eq. 6).
//
// Gradient order: we use the first-order approximation (FOMAML) — the query
// gradient is taken at the adapted parameters and applied to the initial
// parameters, dropping the Hessian term of the full MAML objective.  This
// matches common practice (the MAML-PyTorch implementation the paper builds
// on defaults to it for exactly this task family) and preserves the
// fast-adaptation behaviour the paper measures; see DESIGN.md.
//
// The paper uses alpha = 0.1, beta = 1e-3 with Adam on the outer update,
// 32 tasks per iteration and 1000-frame support/query sets at 20k
// iterations; defaults here are the same knobs scaled for CPU budgets.

#include <cstddef>
#include <vector>

#include "data/featurize.h"
#include "data/fusion.h"
#include "data/split.h"
#include "nn/module.h"
#include "nn/optim.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fuse::core {

/// How tasks are drawn from D_train.
enum class TaskMode {
  /// Definition 2 verbatim: a task is a uniform sample of fused frames.
  /// With iid tasks the inner adaptation has nothing task-specific to
  /// learn, so MAML degenerates towards plain ERM — kept for the ablation.
  kUniformFrames,
  /// A task is one (subject, movement) pair; support and query are sampled
  /// within it.  This matches the paper's framing ("adapt to new users and
  /// movements") and is what gives the meta-learned initialisation its
  /// fast-adaptation property.  Default.
  kPerSequence,
};

struct MetaConfig {
  std::size_t iterations = 200;
  std::size_t tasks_per_iteration = 8;   ///< paper: 32
  std::size_t support_size = 128;        ///< paper: 1000 frames
  std::size_t query_size = 128;          ///< paper: 1000 frames
  std::size_t inner_steps = 2;
  TaskMode task_mode = TaskMode::kPerSequence;
  /// Sample-level (inner) learning rate.  The paper quotes alpha = 0.1 in
  /// its gradient scale; with this codebase's normalized L1 loss, 0.1 lets
  /// theta drift into a "good only after adaptation" regime (theta itself
  /// degenerates), while 0.02 keeps theta meaningful and minimises the
  /// query loss — see bench/ablation_meta for the sweep.
  float alpha = 0.02f;
  float beta = 1e-3f;   ///< task-level (outer/meta) learning rate
  float grad_clip = 10.0f;
  std::uint64_t seed = 7;
  bool verbose = false;
};

struct MetaHistory {
  std::vector<float> query_loss;  ///< mean query loss per meta-iteration
};

class MetaTrainer {
 public:
  MetaTrainer(fuse::nn::Module* model, MetaConfig cfg)
      : model_(model), cfg_(cfg), outer_(cfg.beta), rng_(cfg.seed) {}

  /// Distributes the per-task inner-loop adaptations of each meta-iteration
  /// over `pool` (nullptr, the default, uses the process-global pool).  The
  /// outer loop is embarrassingly parallel — every task adapts its own
  /// clone — and stays deterministic regardless of worker count: tasks are
  /// sampled sequentially up front (one RNG stream, same draws as the
  /// serial loop), each adaptation is RNG-free, and the meta-gradient
  /// reduction runs in task order after all tasks finish.
  void set_task_pool(fuse::util::ThreadPool* pool) { pool_ = pool; }

  /// Runs meta-training over tasks sampled from `train_pool`.
  MetaHistory run(const fuse::data::FusedDataset& fused,
                  const fuse::data::Featurizer& feat,
                  const fuse::data::IndexSet& train_pool);

  /// Adapts a *clone* of the given model on a support set for a number of
  /// SGD steps and returns the query loss of the adapted clone, leaving the
  /// clone's gradients populated (exposed for tests and ablations).  Its
  /// steps run on `tape`, which run() keeps one of per task worker.
  float task_adapt_and_query(fuse::nn::Module& clone, fuse::nn::Tape& tape,
                             const fuse::data::FusedDataset& fused,
                             const fuse::data::Featurizer& feat,
                             const fuse::data::IndexSet& support,
                             const fuse::data::IndexSet& query) const;

 private:
  fuse::nn::Module* model_;
  MetaConfig cfg_;
  fuse::nn::Adam outer_;
  fuse::util::Rng rng_;
  fuse::util::ThreadPool* pool_ = nullptr;
};

}  // namespace fuse::core
