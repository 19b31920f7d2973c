// Reproduces Table 2: MAE comparison between baseline and FUSE at 5 epochs,
// at the intersection epoch, and at 50 epochs, for both fine-tuning regimes
// (all layers / last layer).
//
// Paper values (cm):
//                       All layers          Last layer
//                     baseline  FUSE      baseline  FUSE
//   5 epochs Original   6.4      7.6        6.5      9.0
//            New        9.0      6.0        9.6      8.3
//   Intersec Original  10.6      6.6        7.2      8.2
//            New        4.6      4.3        7.1      7.0
//   50 epochs Original 18.7      6.4       31.0      7.8
//            New        2.0      3.9        3.9      6.0
//
// Reuses the models cached by fig3/fig4 when available (same --scale/seed),
// otherwise trains them itself.
//
// Usage: table2_summary [--scale=1.0] [--paper] [--out=DIR]

#include <algorithm>
#include <cstdio>

#include "experiment_common.h"
#include "util/table.h"

namespace {

struct RegimeResult {
  fuse::core::FineTuneCurve baseline;
  fuse::core::FineTuneCurve fuse_curve;
  fuse::core::Intersection intersection;
};

}  // namespace

int main(int argc, char** argv) {
  const fuse::util::Cli cli(argc, argv);
  const auto cfg = fuse::bench::AdaptationConfig::from_cli(cli);

  std::printf("Table 2 — baseline vs FUSE at 5 epochs / intersection / "
              "%zu epochs\n",
              cfg.finetune_epochs);
  fuse::bench::AdaptationLab lab(cfg, cli.out_dir());

  RegimeResult all, last;
  {
    auto [b, f] = lab.run_finetune(/*last_layer_only=*/false);
    all = {std::move(b), std::move(f), {}};
    all.intersection = fuse::core::intersection_epoch(
        all.baseline.new_data_cm, all.fuse_curve.new_data_cm);
  }
  {
    auto [b, f] = lab.run_finetune(/*last_layer_only=*/true);
    last = {std::move(b), std::move(f), {}};
    last.intersection = fuse::core::intersection_epoch(
        last.baseline.new_data_cm, last.fuse_curve.new_data_cm);
  }

  const std::size_t end = all.baseline.new_data_cm.size() - 1;
  auto at = [&](const std::vector<double>& curve, std::size_t e) {
    return fuse::bench::fmt_cm(curve[std::min(e, end)]);
  };
  // A curve that never crossed reports its last epoch in this row.
  auto clamp_x = [&](const fuse::core::Intersection& x) {
    return std::min(x.epoch, end);
  };

  fuse::util::Table t("\nTable 2: MAE comparison between baseline and FUSE "
                      "(cm)");
  t.set_header({"", "", "All: baseline", "All: FUSE", "Last: baseline",
                "Last: FUSE"});
  t.add_row({"5 epochs", "Original", at(all.baseline.original_cm, 5),
             at(all.fuse_curve.original_cm, 5),
             at(last.baseline.original_cm, 5),
             at(last.fuse_curve.original_cm, 5)});
  t.add_row({"", "New", at(all.baseline.new_data_cm, 5),
             at(all.fuse_curve.new_data_cm, 5),
             at(last.baseline.new_data_cm, 5),
             at(last.fuse_curve.new_data_cm, 5)});
  t.add_row({"Intersection", "Original",
             at(all.baseline.original_cm, clamp_x(all.intersection)),
             at(all.fuse_curve.original_cm, clamp_x(all.intersection)),
             at(last.baseline.original_cm, clamp_x(last.intersection)),
             at(last.fuse_curve.original_cm, clamp_x(last.intersection))});
  t.add_row({"", "New",
             at(all.baseline.new_data_cm, clamp_x(all.intersection)),
             at(all.fuse_curve.new_data_cm, clamp_x(all.intersection)),
             at(last.baseline.new_data_cm, clamp_x(last.intersection)),
             at(last.fuse_curve.new_data_cm, clamp_x(last.intersection))});
  const std::string end_label = std::to_string(end) + " epochs";
  t.add_row({end_label, "Original", at(all.baseline.original_cm, end),
             at(all.fuse_curve.original_cm, end),
             at(last.baseline.original_cm, end),
             at(last.fuse_curve.original_cm, end)});
  t.add_row({"", "New", at(all.baseline.new_data_cm, end),
             at(all.fuse_curve.new_data_cm, end),
             at(last.baseline.new_data_cm, end),
             at(last.fuse_curve.new_data_cm, end)});
  t.print();

  std::printf("\nIntersection: all layers %s (paper epoch 26); last layer "
              "%s (paper epoch 16)\n",
              fuse::bench::fmt_intersection(all.intersection).c_str(),
              fuse::bench::fmt_intersection(last.intersection).c_str());
  // The headline claim: FUSE reaches its 5-epoch MAE `intersection/5`-times
  // faster than the baseline catches up.  Only a lead the baseline had to
  // catch is a speed-up.
  using Outcome = fuse::core::Intersection::Outcome;
  switch (all.intersection.outcome) {
    case Outcome::kCrossed:
      std::printf("Adaptation speedup (all layers): %.1fx "
                  "(paper ~4x: 26 epochs vs 5)\n",
                  static_cast<double>(all.intersection.epoch) / 5.0);
      break;
    case Outcome::kBaselineNeverCaughtUp:
      std::printf("Adaptation speedup (all layers): baseline never caught up "
                  "within %zu epochs (>%.1fx)\n",
                  end, static_cast<double>(end) / 5.0);
      break;
    case Outcome::kFuseNeverAhead:
      std::printf("Adaptation speedup (all layers): none, FUSE was never "
                  "ahead of the baseline (paper ~4x)\n");
      break;
  }
  return 0;
}
