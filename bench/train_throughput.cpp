// Training-path throughput: meta-iterations/sec (Algorithm 1) over 1..N
// task workers and fine-tune steps/sec (the MAML inner update,
// core::sgd_step).
//
// Both training passes run on the tiled GEMM kernels (the convolutions as
// implicit GEMMs that gather their columns straight from the input), and
// the task-parallel outer loop adapts per-task clones concurrently —
// each row must reproduce the same losses, because the task sampling is
// pre-drawn on one RNG stream and the meta-gradient reduction runs in
// task order regardless of worker count.
//
// Thread accounting: the "1 thread" rows run the whole workload inside a
// util::InlineScope (every free parallel_for serializes inline there), so
// no kernel sneaks onto the global pool behind the measurement's back.
//
// Run: ./train_throughput [--scale=1] [--smoke] [--out=DIR]
// Emits DIR/BENCH_train.json (machine-readable perf trajectory), with the
// process's peak resident set (getrusage ru_maxrss) as peak_rss_mb.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/finetune.h"
#include "core/meta.h"
#include "data/builder.h"
#include "data/featurize.h"
#include "data/fusion.h"
#include "data/split.h"
#include "nn/registry.h"
#include "util/atomic_file.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

struct MetaRun {
  std::size_t threads = 1;
  double iters_per_sec = 0.0;
  float final_query_loss = 0.0f;
};

struct StepRun {
  double steps_per_sec = 0.0;
  float last_loss = 0.0f;
};

struct Bench {
  const fuse::data::FusedDataset& fused;
  const fuse::data::Featurizer& feat;
  const fuse::data::IndexSet& train_pool;
  fuse::core::MetaConfig mcfg;
  std::uint64_t model_seed;

  std::unique_ptr<fuse::nn::Module> make_model() const {
    fuse::nn::ModelConfig cfg;
    cfg.in_channels = fuse::data::kChannelsPerFrame;
    cfg.seed = model_seed;
    return fuse::nn::build_model("mars_cnn", cfg);
  }

  /// One timed meta-training run at the given worker count.
  MetaRun run_meta(std::size_t threads) const {
    MetaRun out;
    out.threads = threads;
    const auto model = make_model();
    fuse::core::MetaTrainer meta(model.get(), mcfg);
    // Confine the run to exactly `threads` workers: under an InlineScope
    // the reduction/outer update — and, at one thread, every kernel —
    // serialize inline on this thread instead of escaping to the
    // hardware-wide global pool behind the measurement's back.  For
    // threads > 1 the per-task adaptations fan out to a dedicated task
    // pool (its own parallel_for, which an InlineScope does not confine).
    std::unique_ptr<fuse::util::ThreadPool> task_pool;
    if (threads > 1) {
      task_pool = std::make_unique<fuse::util::ThreadPool>(threads);
      meta.set_task_pool(task_pool.get());
    }
    const fuse::util::InlineScope inline_scope;
    fuse::util::Stopwatch sw;
    const auto hist = meta.run(fused, feat, train_pool);
    const double secs = sw.seconds();
    out.iters_per_sec = static_cast<double>(mcfg.iterations) / secs;
    out.final_query_loss = hist.query_loss.back();
    return out;
  }

  /// Fine-tune (online-adaptation) steps/sec: repeated core::sgd_step on a
  /// fixed featurized batch — exactly the serve runtime's per-user update.
  StepRun run_steps(std::size_t batch, std::size_t steps) const {
    StepRun out;
    const auto model = make_model();
    fuse::data::IndexSet batch_set(
        train_pool.begin(),
        train_pool.begin() +
            static_cast<std::ptrdiff_t>(std::min(batch, train_pool.size())));
    const auto x = feat.make_inputs(fused, batch_set);
    const auto y = feat.make_labels(fused, batch_set);
    const fuse::util::InlineScope inline_scope;  // one thread, as served
    fuse::nn::Tape tape;  // one per serving shard, reused across rounds
    (void)fuse::core::sgd_step(*model, tape, x, y, 0.02f);  // warm-up step
    fuse::util::Stopwatch sw;
    for (std::size_t s = 0; s < steps; ++s)
      out.last_loss = fuse::core::sgd_step(*model, tape, x, y, 0.02f);
    const double secs = sw.seconds();
    out.steps_per_sec = static_cast<double>(steps) / secs;
    return out;
  }
};

}  // namespace

int main(int argc, char** argv) try {
  const fuse::util::Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const double scale = smoke ? 0.25 : (cli.paper() ? 1.0 : cli.scale());

  fuse::data::BuilderConfig bcfg;
  bcfg.frames_per_sequence = fuse::util::scaled(80, scale, 24);
  bcfg.seed = cli.seed();

  fuse::core::MetaConfig mcfg;
  mcfg.iterations = smoke ? 2 : fuse::util::scaled(8, scale, 3);
  mcfg.tasks_per_iteration = smoke ? 4 : 8;
  mcfg.support_size = smoke ? 32 : 96;
  mcfg.query_size = mcfg.support_size;
  mcfg.inner_steps = 2;
  mcfg.seed = cli.seed() + 19;

  // One row per power of two up to the CPUs this process may run on (the
  // shared pool's size), so `taskset -c 0` times one thread, not several
  // workers queued on one CPU.
  const std::size_t hc = fuse::util::global_pool().size();
  std::vector<std::size_t> thread_counts{1};
  for (std::size_t t = 2; t <= hc; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != hc)
    thread_counts.push_back(hc);  // full width on non-power-of-2 hosts

  std::printf("FUSE training throughput: GEMM training + "
              "task-parallel FOMAML\n(%zu frames/seq, %zu meta-iterations, "
              "%zu tasks x %zu frames, host threads %zu)\n\n",
              bcfg.frames_per_sequence, mcfg.iterations,
              mcfg.tasks_per_iteration, mcfg.support_size, hc);

  fuse::util::Stopwatch prep;
  const auto dataset = fuse::data::build_dataset(bcfg);
  const fuse::data::FusedDataset fused(dataset, 1);
  const auto split = fuse::data::leave_out_split(dataset);
  fuse::data::Featurizer feat;
  feat.fit(dataset, split.train);
  std::printf("dataset ready: %zu frames [%.1f s]\n\n", dataset.size(),
              prep.seconds());

  const Bench bench{fused, feat, split.train, mcfg, cli.seed() + 17};

  // --------------------------------------------------- meta-training --
  std::vector<MetaRun> meta_runs;
  fuse::util::Table meta_table("meta-training throughput (iterations/sec)");
  meta_table.set_header({"threads", "iters/sec", "query loss", "vs 1t"});
  for (const std::size_t t : thread_counts) {
    const MetaRun run = bench.run_meta(t);
    meta_runs.push_back(run);
    meta_table.add_row(
        {std::to_string(run.threads),
         fuse::util::Table::num(run.iters_per_sec, 3),
         fuse::util::Table::num(run.final_query_loss, 4),
         fuse::util::Table::num(
             run.iters_per_sec / meta_runs.front().iters_per_sec, 2) +
             "x"});
  }
  std::printf("%s\n", meta_table.to_string().c_str());

  // Every configuration must land on the same losses (deterministic task
  // pre-sampling + ordered reduction); a drifting row means a data race.
  bool losses_agree = true;
  for (const auto& run : meta_runs)
    if (std::abs(run.final_query_loss - meta_runs.front().final_query_loss) >
        1e-5f)
      losses_agree = false;
  std::printf("losses agree across worker counts: %s\n\n",
              losses_agree ? "yes" : "NO — DATA RACE?");

  // ------------------------------------------------- fine-tune steps --
  const StepRun step = bench.run_steps(64, smoke ? 10 : 60);
  std::printf("fine-tune (sgd_step, batch 64): %.1f steps/sec, last loss "
              "%.6f\n",
              step.steps_per_sec, step.last_loss);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  std::printf("peak RSS: %.1f MB\n", peak_rss_mb);

  fuse::util::JsonWriter w;
  w.begin_object().field("bench", "train_throughput")
      .field("host_threads", hc).field("peak_rss_mb", peak_rss_mb)
      .key("meta").begin_array();
  for (const auto& run : meta_runs)
    w.begin_object().field("threads", run.threads)
        .field("iters_per_sec", run.iters_per_sec)
        .field("final_query_loss", run.final_query_loss).end_object();
  w.end_array().key("finetune").begin_array().begin_object()
      .field("steps_per_sec", step.steps_per_sec)
      .field("last_loss", step.last_loss).end_object().end_array()
      .end_object();
  const std::string path = cli.out_dir() + "/BENCH_train.json";
  fuse::util::write_file_atomic(path, w.str());
  std::printf("wrote %s\n", path.c_str());
  return losses_agree ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
