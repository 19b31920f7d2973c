#include "core/meta.h"

#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "nn/loss.h"
#include "util/log.h"

namespace fuse::core {

using fuse::data::IndexSet;
using fuse::nn::Tensor;

float MetaTrainer::task_adapt_and_query(fuse::nn::Module& clone,
                                        fuse::nn::Tape& tape,
                                        const fuse::data::FusedDataset& fused,
                                        const fuse::data::Featurizer& feat,
                                        const IndexSet& support,
                                        const IndexSet& query) const {
  const fuse::nn::Sgd inner(cfg_.alpha);
  const auto params = clone.params();
  const auto grads = clone.grads();

  // Inner loop (lines 5-7 of Algorithm 1): adapt on the support set.
  Tensor dpred;
  if (cfg_.inner_steps > 0) {
    const auto xs = feat.make_inputs(fused, support);
    const auto ys = feat.make_labels(fused, support);
    for (std::size_t step = 0; step < cfg_.inner_steps; ++step) {
      const auto& pred = clone.forward(xs, tape);
      (void)fuse::nn::l1_loss(pred, ys, &dpred);
      clone.zero_grad();
      clone.backward(dpred, tape, fuse::nn::InputGrad::kSkip);
      if (cfg_.grad_clip > 0.0f)
        fuse::nn::clip_grad_norm(grads, cfg_.grad_clip);
      inner.step(params, grads);
    }
  }

  // Query evaluation at the adapted parameters (lines 8-9): leaves the
  // first-order meta-gradient in the clone's grad tensors.
  const auto xq = feat.make_inputs(fused, query);
  const auto yq = feat.make_labels(fused, query);
  const auto& pred = clone.forward(xq, tape);
  const float qloss = fuse::nn::l1_loss(pred, yq, &dpred);
  clone.zero_grad();
  clone.backward(dpred, tape, fuse::nn::InputGrad::kSkip);
  return qloss;
}

MetaHistory MetaTrainer::run(const fuse::data::FusedDataset& fused,
                             const fuse::data::Featurizer& feat,
                             const IndexSet& train_pool) {
  MetaHistory hist;
  hist.query_loss.reserve(cfg_.iterations);
  fuse::data::TaskSampler uniform_sampler(train_pool, rng_.fork());

  // Per-sequence task pools: frames grouped by (subject, movement).
  std::vector<IndexSet> groups;
  if (cfg_.task_mode == TaskMode::kPerSequence) {
    std::map<std::pair<std::size_t, std::size_t>, IndexSet> by_key;
    for (const std::size_t idx : train_pool) {
      const auto& f = fused.dataset().frames[idx];
      by_key[{f.subject, static_cast<std::size_t>(f.movement)}].push_back(
          idx);
    }
    for (auto& [key, set] : by_key) groups.push_back(std::move(set));
  }

  const auto params = model_->params();
  const auto grads = model_->grads();

  const std::size_t n_tasks = cfg_.tasks_per_iteration;
  // One tape per task worker, kept across meta-iterations: a worker takes
  // a free one for its chunk of tasks and puts it back after, so no more
  // tapes exist than chunks ever ran at once (at most one per task, which
  // the reserve covers: putting one back never allocates in a worker).
  std::vector<std::unique_ptr<fuse::nn::Tape>> free_tapes;
  free_tapes.reserve(n_tasks);
  std::mutex tapes_mu;
  for (std::size_t it = 0; it < cfg_.iterations; ++it) {
    // Meta-gradient accumulator (Eq. 6 sums query-task losses).
    std::vector<Tensor> meta_grad;
    meta_grad.reserve(params.size());
    for (const Tensor* p : params) meta_grad.emplace_back(p->shape());

    // Line 3: sample every task up front (lines 5 & 8: support / query
    // subsets) on the single RNG stream — the draw order is identical to
    // the old serial loop, so fixed-seed runs reproduce the same tasks no
    // matter how many workers adapt them below.
    std::vector<IndexSet> supports(n_tasks), queries(n_tasks);
    for (std::size_t t = 0; t < n_tasks; ++t) {
      if (cfg_.task_mode == TaskMode::kPerSequence) {
        const IndexSet& group = groups[rng_.uniform_int(groups.size())];
        fuse::data::TaskSampler task_sampler(group, rng_.fork());
        supports[t] = task_sampler.sample_task(cfg_.support_size);
        queries[t] = task_sampler.sample_task(cfg_.query_size);
      } else {
        supports[t] = uniform_sampler.sample_task(cfg_.support_size);
        queries[t] = uniform_sampler.sample_task(cfg_.query_size);
      }
    }

    // Lines 4-9, embarrassingly parallel: each task adapts its own clone
    // (private parameters and gradients, on its worker's tape; the shared
    // model is only read by clone()).  Kernel-level parallel_for calls
    // inside the workers serialize inline, so the pool is never
    // oversubscribed.  Exceptions (shape mismatches, bad_alloc under
    // tasks_per_iteration clones) must not escape a pool worker — that
    // would std::terminate — so the first one is captured and rethrown on
    // this thread, preserving the serial loop's error behaviour.
    std::vector<std::unique_ptr<fuse::nn::Module>> clones(n_tasks);
    std::vector<float> qloss(n_tasks, 0.0f);
    std::exception_ptr task_error = nullptr;
    std::mutex error_mu;
    const auto adapt_range = [&](std::size_t lo, std::size_t hi) {
      std::unique_ptr<fuse::nn::Tape> tape;
      {
        std::lock_guard<std::mutex> lock(tapes_mu);
        if (!free_tapes.empty()) {
          tape = std::move(free_tapes.back());
          free_tapes.pop_back();
        }
      }
      for (std::size_t t = lo; t < hi; ++t) {
        try {
          if (!tape) tape = std::make_unique<fuse::nn::Tape>();
          clones[t] = model_->clone();
          qloss[t] = task_adapt_and_query(*clones[t], *tape, fused, feat,
                                          supports[t], queries[t]);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!task_error) task_error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(tapes_mu);
      if (tape) free_tapes.push_back(std::move(tape));
    };
    if (pool_) {
      pool_->parallel_for(0, n_tasks, adapt_range, 1);
    } else {
      fuse::util::parallel_for(0, n_tasks, adapt_range, 1);
    }
    if (task_error) std::rethrow_exception(task_error);

    // Reduce in task order — float accumulation sequence is fixed, so the
    // meta-gradient is bit-identical for 1 or N workers.
    double qloss_acc = 0.0;
    for (std::size_t t = 0; t < n_tasks; ++t) {
      qloss_acc += qloss[t];
      const auto clone_grads = clones[t]->grads();
      for (std::size_t i = 0; i < meta_grad.size(); ++i)
        meta_grad[i] += *clone_grads[i];
      clones[t].reset();  // release the clone before the next reduction step
    }

    // Line 11: single outer update from the summed query gradients
    // (averaged over tasks to keep beta scale-independent).
    const float inv_tasks = 1.0f / static_cast<float>(n_tasks);
    for (std::size_t i = 0; i < meta_grad.size(); ++i) {
      meta_grad[i] *= inv_tasks;
      *grads[i] = meta_grad[i];
    }
    if (cfg_.grad_clip > 0.0f) fuse::nn::clip_grad_norm(grads, cfg_.grad_clip);
    outer_.step(params, grads);

    hist.query_loss.push_back(
        static_cast<float>(qloss_acc * inv_tasks));
    if (cfg_.verbose && (it + 1) % 10 == 0)
      FUSE_LOG_INFO("meta-iter %zu/%zu  query loss %.4f", it + 1,
                    cfg_.iterations, hist.query_loss.back());
  }
  return hist;
}

}  // namespace fuse::core
