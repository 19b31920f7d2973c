#include "experiment_common.h"

#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>

#include "util/csv.h"
#include "util/log.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fuse::bench {

using fuse::data::IndexSet;

AdaptationConfig AdaptationConfig::from_cli(const fuse::util::Cli& cli) {
  AdaptationConfig cfg;
  if (cli.paper()) {
    cfg.frames_per_sequence = 1000;
    cfg.baseline_epochs = 150;
    cfg.meta_warmup_epochs = 0;  // the paper meta-trains from scratch
    cfg.meta_iterations = 20000;
    cfg.meta_tasks = 32;
    cfg.meta_task_frames = 1000;
    cfg.original_eval_cap = 29225;
  } else {
    const double s = cli.scale();
    cfg.frames_per_sequence =
        fuse::util::scaled(cfg.frames_per_sequence, s, 40);
    cfg.baseline_epochs = fuse::util::scaled(cfg.baseline_epochs, s, 4);
    cfg.meta_warmup_epochs = fuse::util::scaled(cfg.meta_warmup_epochs, s, 2);
    cfg.meta_iterations = fuse::util::scaled(cfg.meta_iterations, s, 10);
  }
  cfg.model_name = cli.get("model", cfg.model_name);
  cfg.seed = cli.seed();
  return cfg;
}

std::string AdaptationConfig::cache_tag() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s_f%zu_m%zu_e%zu_w%zu_i%zu_t%zu_s%llu",
                model_name.c_str(), frames_per_sequence, fusion_m,
                baseline_epochs, meta_warmup_epochs, meta_iterations,
                meta_tasks, static_cast<unsigned long long>(seed));
  return buf;
}

AdaptationLab::AdaptationLab(const AdaptationConfig& cfg, std::string out_dir)
    : cfg_(cfg), out_dir_(std::move(out_dir)) {
  fuse::util::Stopwatch sw;
  fuse::data::BuilderConfig bcfg;
  bcfg.frames_per_sequence = cfg_.frames_per_sequence;
  bcfg.seed = cfg_.seed;
  dataset_ = fuse::data::build_dataset(bcfg);
  fused_ = std::make_unique<fuse::data::FusedDataset>(dataset_,
                                                      cfg_.fusion_m);
  split_ = fuse::data::leave_out_split(dataset_);
  feat_.fit(dataset_, split_.train);

  // Keep at least 40% of D_test for evaluation when the scaled-down test
  // split is smaller than the paper's 200 fine-tune frames.
  const std::size_t ft_frames =
      std::min(cfg_.finetune_frames, (split_.test.size() * 3) / 5);
  auto [ft, ev] = fuse::data::finetune_eval_split(split_.test, ft_frames);
  finetune_set_ = std::move(ft);
  eval_new_ = std::move(ev);
  // "Original data" evaluation: a deterministic stride subsample of D_train.
  const std::size_t stride =
      std::max<std::size_t>(1, split_.train.size() / cfg_.original_eval_cap);
  for (std::size_t i = 0; i < split_.train.size(); i += stride)
    eval_original_.push_back(split_.train[i]);

  std::printf("[lab] dataset %zu frames; D_train %zu, D_test %zu "
              "(fine-tune %zu, eval %zu)  [%.1f s]\n",
              dataset_.size(), split_.train.size(), split_.test.size(),
              finetune_set_.size(), eval_new_.size(), sw.seconds());
}

std::unique_ptr<fuse::nn::Module> AdaptationLab::make_model(
    std::uint64_t seed) {
  fuse::nn::ModelConfig mcfg;
  mcfg.in_channels = fuse::data::kChannelsPerFrame;
  mcfg.seed = seed;
  return fuse::nn::build_model(cfg_.model_name, mcfg);
}

bool AdaptationLab::try_load(fuse::nn::Module& model,
                             const std::string& name) const {
  const std::string path =
      out_dir_ + "/" + name + "_" + cfg_.cache_tag() + ".bin";
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  try {
    model.load(is);
  } catch (const std::exception&) {
    return false;
  }
  std::printf("[lab] loaded cached %s model from %s\n", name.c_str(),
              path.c_str());
  return true;
}

void AdaptationLab::store(const fuse::nn::Module& model,
                          const std::string& name) const {
  const std::string path =
      out_dir_ + "/" + name + "_" + cfg_.cache_tag() + ".bin";
  try {
    model.save_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[lab] could not cache %s: %s\n", name.c_str(),
                 e.what());
  }
}

fuse::nn::Module& AdaptationLab::baseline() {
  if (baseline_) return *baseline_;
  baseline_ = make_model(cfg_.seed + 1);
  if (try_load(*baseline_, "baseline")) return *baseline_;

  fuse::util::Stopwatch sw;
  fuse::core::TrainConfig tcfg;
  tcfg.epochs = cfg_.baseline_epochs;
  tcfg.seed = cfg_.seed + 2;
  fuse::core::Trainer trainer(baseline_.get(), tcfg);
  const auto hist = trainer.fit(*fused_, feat_, split_.train);
  std::printf("[lab] baseline trained: %zu epochs, final loss %.4f "
              "[%.1f s]\n",
              hist.train_loss.size(), hist.train_loss.back(), sw.seconds());
  store(*baseline_, "baseline");
  return *baseline_;
}

fuse::nn::Module& AdaptationLab::fuse_model() {
  if (fuse_) return *fuse_;
  fuse_ = make_model(cfg_.seed + 3);
  if (try_load(*fuse_, "fuse_meta")) return *fuse_;

  fuse::util::Stopwatch sw;
  if (cfg_.meta_warmup_epochs > 0) {
    fuse::core::TrainConfig wcfg;
    wcfg.epochs = cfg_.meta_warmup_epochs;
    wcfg.seed = cfg_.seed + 6;
    fuse::core::Trainer warmup(fuse_.get(), wcfg);
    const auto whist = warmup.fit(*fused_, feat_, split_.train);
    std::printf("[lab] FUSE warm-up: %zu epochs, loss %.4f [%.1f s]\n",
                whist.train_loss.size(), whist.train_loss.back(),
                sw.seconds());
  }
  fuse::core::MetaConfig mcfg;
  mcfg.iterations = cfg_.meta_iterations;
  mcfg.tasks_per_iteration = cfg_.meta_tasks;
  mcfg.support_size = cfg_.meta_task_frames;
  mcfg.query_size = cfg_.meta_task_frames;
  mcfg.seed = cfg_.seed + 4;
  fuse::core::MetaTrainer meta(fuse_.get(), mcfg);
  const auto hist = meta.run(*fused_, feat_, split_.train);
  std::printf("[lab] FUSE meta-trained: %zu iterations, final query loss "
              "%.4f [%.1f s]\n",
              hist.query_loss.size(), hist.query_loss.back(), sw.seconds());
  store(*fuse_, "fuse_meta");
  return *fuse_;
}

std::pair<fuse::core::FineTuneCurve, fuse::core::FineTuneCurve>
AdaptationLab::run_finetune(bool last_layer_only) {
  // Each method adapts with its own update rule, as in the paper's setup:
  // the baseline continues with the Adam procedure it was trained with,
  // while FUSE replays the MAML inner loop (plain SGD at alpha) that its
  // initialisation was meta-optimised for.
  fuse::core::FineTuneConfig base_cfg;
  base_cfg.epochs = cfg_.finetune_epochs;
  base_cfg.last_layer_only = last_layer_only;
  base_cfg.seed = cfg_.seed + 5;
  base_cfg.use_sgd = false;

  fuse::core::FineTuneConfig fuse_cfg = base_cfg;
  fuse_cfg.use_sgd = cfg_.fuse_sgd_finetune;

  // Fine-tune clones; the cached pre-trained models stay pristine.
  const auto baseline_copy = baseline().clone();
  const auto fuse_copy = fuse_model().clone();

  // The two runs are independent adaptations of private model copies over
  // shared read-only data — the same embarrassing parallelism as the
  // FOMAML outer loop.  Task-level parallelism only pays while the jobs
  // saturate the pool: a worker running fine_tune serializes every nested
  // kernel parallel_for inline, so on hosts wider than the pair the
  // kernels' own fan-out uses more cores than two pinned workers would —
  // stay serial there and let each run spread.
  fuse::util::Stopwatch sw;
  fuse::core::FineTuneCurve base_curve, fuse_curve;
  const auto run_base = [&] {
    base_curve =
        fuse::core::fine_tune(*baseline_copy, *fused_, feat_, finetune_set_,
                              eval_new_, eval_original_, base_cfg);
  };
  const auto run_fuse = [&] {
    fuse_curve =
        fuse::core::fine_tune(*fuse_copy, *fused_, feat_, finetune_set_,
                              eval_new_, eval_original_, fuse_cfg);
  };
  if (fuse::util::global_pool().size() <= 2) {
    // Exceptions must not escape a pool worker (std::terminate); capture
    // the first and rethrow here, preserving the serial error behaviour.
    std::exception_ptr error = nullptr;
    std::mutex error_mu;
    fuse::util::parallel_for(0, 2, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        try {
          if (i == 0) {
            run_base();
          } else {
            run_fuse();
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
      }
    }, 1);
    if (error) std::rethrow_exception(error);
  } else {
    run_base();
    run_fuse();
  }
  std::printf("[lab] fine-tuning (%s) done [%.1f s]\n",
              last_layer_only ? "last layer" : "all layers", sw.seconds());
  return {std::move(base_curve), std::move(fuse_curve)};
}

void AdaptationLab::write_curves_csv(
    const std::string& path, const fuse::core::FineTuneCurve& baseline,
    const fuse::core::FineTuneCurve& fuse_curve) const {
  fuse::util::CsvWriter csv(path);
  csv.row("epoch", "baseline_new_cm", "fuse_new_cm", "baseline_orig_cm",
          "fuse_orig_cm");
  for (std::size_t e = 0; e < baseline.new_data_cm.size(); ++e) {
    csv.row(e, baseline.new_data_cm[e], fuse_curve.new_data_cm[e],
            baseline.original_cm[e], fuse_curve.original_cm[e]);
  }
  std::printf("[lab] curves written to %s\n", path.c_str());
}

std::string fmt_cm(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string fmt_intersection(const fuse::core::Intersection& x) {
  using Outcome = fuse::core::Intersection::Outcome;
  char buf[96] = "";
  switch (x.outcome) {
    case Outcome::kCrossed:
      std::snprintf(buf, sizeof(buf), "epoch %zu", x.epoch);
      break;
    case Outcome::kBaselineNeverCaughtUp:
      std::snprintf(buf, sizeof(buf),
                    "none (the baseline never caught up within %zu epochs)",
                    x.epoch);
      break;
    case Outcome::kFuseNeverAhead:
      std::snprintf(buf, sizeof(buf),
                    "none (FUSE was never ahead of the baseline)");
      break;
  }
  return buf;
}

}  // namespace fuse::bench
