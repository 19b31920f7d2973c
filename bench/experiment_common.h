#pragma once
// Shared machinery for the paper-reproduction benches.
//
// The adaptation experiments (Figures 3-4, Table 2) share an expensive
// preparation phase: synthesize the dataset, apply the leave-out split,
// train the supervised baseline and meta-train FUSE.  AdaptationLab runs
// that phase once and caches the trained models on disk (keyed by
// configuration), so fig3, fig4 and table2 binaries can each run standalone
// yet reuse each other's work when run in sequence.

#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "core/finetune.h"
#include "core/meta.h"
#include "core/metrics.h"
#include "core/trainer.h"
#include "data/builder.h"
#include "data/featurize.h"
#include "data/fusion.h"
#include "data/split.h"
#include "nn/module.h"
#include "nn/registry.h"
#include "radar/scene.h"
#include "util/cli.h"
#include "util/rng.h"

namespace fuse::bench {

/// A compact multi-target scene (torso + limbs worth of scatterers at
/// 1.5-3 m with mixed radial velocities): cheap to simulate, busy enough
/// that CFAR yields a realistic detection load.  Shared by the DSP and
/// serving benches so their cube workloads stay identical — the CI
/// regression gate compares detection counts derived from these scenes.
inline fuse::radar::Scene make_bench_scene(fuse::util::Rng& rng,
                                           std::size_t n_scatterers = 24) {
  fuse::radar::Scene scene;
  for (std::size_t i = 0; i < n_scatterers; ++i) {
    fuse::radar::Scatterer s;
    s.position = {rng.uniformf(-0.6f, 0.6f), rng.uniformf(1.5f, 3.0f),
                  rng.uniformf(-0.8f, 0.8f)};
    s.velocity = {0.0f, rng.uniformf(-1.2f, 1.2f), rng.uniformf(-0.4f, 0.4f)};
    s.rcs = rng.uniformf(0.002f, 0.02f);
    scene.push_back(s);
  }
  return scene;
}

/// Sizing for the adaptation experiments; all counts scale with the --scale
/// flag, --paper selects the full paper configuration.
struct AdaptationConfig {
  std::size_t frames_per_sequence = 250;  ///< paper: 1000
  std::size_t fusion_m = 1;               ///< the paper fuses 3 frames
  std::size_t baseline_epochs = 25;       ///< paper: 150
  /// Supervised warm-up before meta-training.  The paper meta-trains from
  /// scratch for 20,000 iterations; at CPU scale we reach an equivalent
  /// starting point with a short supervised phase followed by FOMAML
  /// iterations that shape the parameters for adaptability.  --paper sets
  /// this to 0 and runs the full 20k iterations.
  std::size_t meta_warmup_epochs = 8;
  std::size_t meta_iterations = 500;      ///< paper: 20000
  std::size_t meta_tasks = 6;             ///< paper: 32
  std::size_t meta_task_frames = 128;     ///< paper: 1000
  std::size_t finetune_frames = 200;      ///< paper: 200
  std::size_t finetune_epochs = 50;       ///< paper: 50
  std::size_t original_eval_cap = 1000;   ///< subsample of D_train for speed
  /// Architecture built through nn::build_model (--model=...); the whole
  /// lab is architecture-agnostic.
  std::string model_name = "mars_cnn";
  std::uint64_t seed = 0x22050097ULL;
  /// Update rule for FUSE's online fine-tuning: true replays the MAML
  /// inner SGD at alpha (MAML-PyTorch's "finetunning"), false uses the same
  /// Adam procedure as the baseline.
  bool fuse_sgd_finetune = true;

  static AdaptationConfig from_cli(const fuse::util::Cli& cli);
  /// Stable cache key for the trained-model files.
  std::string cache_tag() const;
};

/// Everything the adaptation benches need, prepared once.
class AdaptationLab {
 public:
  AdaptationLab(const AdaptationConfig& cfg, std::string out_dir);

  /// Trains (or loads from cache) the supervised baseline on the leave-out
  /// training pool.
  fuse::nn::Module& baseline();
  /// Meta-trains (or loads) the FUSE model on the same pool.
  fuse::nn::Module& fuse_model();

  /// Runs one fine-tuning regime for both models; returns {baseline, fuse}.
  std::pair<fuse::core::FineTuneCurve, fuse::core::FineTuneCurve>
  run_finetune(bool last_layer_only);

  const fuse::data::Dataset& dataset() const { return dataset_; }
  const fuse::data::FusedDataset& fused() const { return *fused_; }
  const fuse::data::Featurizer& featurizer() const { return feat_; }
  const fuse::data::LeaveOutSplit& split() const { return split_; }
  const AdaptationConfig& config() const { return cfg_; }

  /// Writes a fine-tune curve pair as CSV (epoch, baseline_new, fuse_new,
  /// baseline_orig, fuse_orig).
  void write_curves_csv(const std::string& path,
                        const fuse::core::FineTuneCurve& baseline,
                        const fuse::core::FineTuneCurve& fuse_curve) const;

 private:
  std::unique_ptr<fuse::nn::Module> make_model(std::uint64_t seed);
  bool try_load(fuse::nn::Module& model, const std::string& name) const;
  void store(const fuse::nn::Module& model, const std::string& name) const;

  AdaptationConfig cfg_;
  std::string out_dir_;
  fuse::data::Dataset dataset_;
  std::unique_ptr<fuse::data::FusedDataset> fused_;
  fuse::data::Featurizer feat_;
  fuse::data::LeaveOutSplit split_;
  fuse::data::IndexSet finetune_set_, eval_new_, eval_original_;
  std::unique_ptr<fuse::nn::Module> baseline_, fuse_;
};

/// Formats a MAE curve entry (cm) for console tables.
std::string fmt_cm(double v);

/// Names an intersection for a console summary: the epoch when the
/// baseline caught up, else which of the two curves never moved.
std::string fmt_intersection(const fuse::core::Intersection& x);

}  // namespace fuse::bench
