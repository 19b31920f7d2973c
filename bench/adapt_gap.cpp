// Full-model against head-only online adaptation, in the serving regime:
// the measurement behind serving's head-only adaptation (DESIGN.md §2).
//
// Per seed, a FUSE model (supervised warm-up + FOMAML on the leave-out
// training pool, cached like the other adaptation benches) adapts online
// to the unseen user's labeled stream the way serve::Shard does, with the
// default serve::AdaptConfig: a ring of the last 64 labeled frames, the
// first round once 16 are buffered, then a round every 8 fresh labels,
// each round 2 SGD steps (lr 0.02, clip 10) over the whole ring.
//  * full — the steps run on a copy of the whole network, on input rows;
//  * head — the steps run on a copy of the last layer alone, on the
//    frozen trunk's activations (what serving does).
// Both stream the first min(200, 60 %) frames of the new user's data in
// time order, one frame per pass, and are then scored on the rest.
//
// Budget, fixed before measuring: the head-only mean new-user MAE may be
// at most 0.5 cm worse than the full-model mean.  The bench exits 1 when
// it is not.
//
// Usage: adapt_gap [--seeds=1,2,3] [--frames=N] [--scale=1.0] [--out=DIR]
// (--frames sets the frames per sequence, which --scale sets otherwise).

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "nn/sequential.h"
#include "serve/session.h"
#include "util/table.h"

namespace {

constexpr double kBudgetCm = 0.5;

/// Rows [begin, end) of a batch tensor.
fuse::tensor::Tensor rows(const fuse::tensor::Tensor& t, std::size_t begin,
                          std::size_t end) {
  const std::size_t width = t.numel() / t.dim(0);
  auto shape = t.shape();
  shape[0] = end - begin;
  fuse::tensor::Tensor out(shape);
  std::memcpy(out.data(), t.data() + begin * width,
              out.numel() * sizeof(float));
  return out;
}

/// Streams the rows of `x` (labels `y`) through the serving round
/// cadence, running core::sgd_step on `model`.  Returns the rounds run.
std::size_t adapt_online(fuse::nn::Module& model, const fuse::tensor::Tensor& x,
                         const fuse::tensor::Tensor& y,
                         const fuse::serve::AdaptConfig& a) {
  std::size_t fresh = 0;
  std::size_t rounds = 0;
  for (std::size_t end = 1; end <= x.dim(0); ++end) {
    ++fresh;
    if (end < a.min_samples || (rounds > 0 && fresh < a.round_every))
      continue;
    const std::size_t begin = end - std::min(end, a.buffer_capacity);
    const auto xb = rows(x, begin, end);
    const auto yb = rows(y, begin, end);
    for (std::size_t step = 0; step < a.steps_per_round; ++step)
      fuse::core::sgd_step(model, xb, yb, a.lr, a.grad_clip);
    fresh = 0;
    ++rounds;
  }
  return rounds;
}

std::string cm(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::vector<std::uint64_t> parse_seeds(const std::string& text) {
  std::vector<std::uint64_t> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(std::stoull(item));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const fuse::util::Cli cli(argc, argv);
  const auto seeds = parse_seeds(cli.get("seeds", "1,2,3"));
  const fuse::serve::AdaptConfig regime;

  std::printf("Online adaptation in the serving regime: full model vs "
              "head only\n");
  fuse::util::Table table("\nNew-user MAE after the stream (cm)");
  table.set_header({"seed", "none", "full", "head", "head - full"});
  double sum_full = 0.0;
  double sum_head = 0.0;
  for (const std::uint64_t seed : seeds) {
    auto cfg = fuse::bench::AdaptationConfig::from_cli(cli);
    cfg.seed = seed;
    cfg.frames_per_sequence = static_cast<std::size_t>(cli.get_int(
        "frames", static_cast<std::int64_t>(cfg.frames_per_sequence)));
    fuse::bench::AdaptationLab lab(cfg, cli.out_dir());
    const auto& meta =
        dynamic_cast<const fuse::nn::Sequential&>(lab.fuse_model());
    const auto& test = lab.split().test;
    const auto [stream, eval] = fuse::data::finetune_eval_split(
        test, std::min(cfg.finetune_frames, (test.size() * 3) / 5));
    const auto x = lab.featurizer().make_inputs(lab.fused(), stream);
    const auto y = lab.featurizer().make_labels(lab.fused(), stream);
    const auto score = [&](const fuse::nn::Module& m) {
      return fuse::core::evaluate(m, lab.fused(), lab.featurizer(), eval)
          .average();
    };

    auto full = meta.clone();
    const std::size_t full_rounds = adapt_online(*full, x, y, regime);

    const std::size_t last = meta.size() - 1;
    const auto trunk = meta.infer_children(0, last, x);
    auto head = meta.child(last).clone();
    adapt_online(*head, trunk, y, regime);
    auto with_head = meta.clone();
    dynamic_cast<fuse::nn::Sequential&>(*with_head)
        .child(last)
        .copy_params_from(*head);

    const double none_cm = score(meta);
    const double full_cm = score(*full);
    const double head_cm = score(*with_head);
    sum_full += full_cm;
    sum_head += head_cm;
    std::printf("[seed %llu] %zu streamed frames, %zu rounds, %zu eval "
                "frames\n",
                static_cast<unsigned long long>(seed), stream.size(),
                full_rounds, eval.size());
    table.add_row({std::to_string(seed), cm(none_cm), cm(full_cm),
                   cm(head_cm), cm(head_cm - full_cm)});
  }
  const double n = static_cast<double>(seeds.size());
  const double gap = (sum_head - sum_full) / n;
  table.add_row(
      {"mean", "", cm(sum_full / n), cm(sum_head / n), cm(gap)});
  table.print();
  const bool within = gap <= kBudgetCm;
  std::printf("\nhead - full = %.2f cm (budget %.1f cm): %s\n", gap,
              kBudgetCm, within ? "within budget" : "OVER BUDGET");
  return within ? 0 : 1;
}
