// Reproduces Figure 4 (and the "Last layer" half of Table 2): the same
// adaptation experiment as Figure 3, but fine-tuning ONLY the last fully
// connected layer.
//
// Paper shape: same qualitative pattern as Figure 3 but weaker — the frozen
// backbone limits adaptation (FUSE reaches 8.3 cm rather than 6.0 cm at
// 5 epochs; intersection moves to ~16 epochs; forgetting is milder for the
// baseline early on but its original-data MAE still climbs to 31 cm by
// epoch 50 in the paper).
//
// Usage: fig4_finetune_last [--scale=1.0] [--paper] [--out=DIR]

#include <cstdio>

#include "experiment_common.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const fuse::util::Cli cli(argc, argv);
  const auto cfg = fuse::bench::AdaptationConfig::from_cli(cli);

  std::printf("Figure 4 — fine-tune LAST layer only (baseline vs FUSE)\n");
  fuse::bench::AdaptationLab lab(cfg, cli.out_dir());
  const auto [base, fuse_curve] = lab.run_finetune(/*last_layer_only=*/true);
  lab.write_curves_csv(cli.out_dir() + "/fig4_curves.csv", base, fuse_curve);

  fuse::util::Table ta("\nFigure 4(a): MAE on ORIGINAL data vs fine-tune "
                       "epoch (cm)");
  ta.set_header({"epoch", "baseline", "FUSE"});
  fuse::util::Table tb("Figure 4(b): MAE on NEW data vs fine-tune epoch "
                       "(cm)");
  tb.set_header({"epoch", "baseline", "FUSE"});
  for (std::size_t e = 0; e < base.new_data_cm.size();
       e += (e < 10 ? 1 : 5)) {
    ta.add_row({std::to_string(e), fuse::bench::fmt_cm(base.original_cm[e]),
                fuse::bench::fmt_cm(fuse_curve.original_cm[e])});
    tb.add_row({std::to_string(e), fuse::bench::fmt_cm(base.new_data_cm[e]),
                fuse::bench::fmt_cm(fuse_curve.new_data_cm[e])});
  }
  ta.print();
  tb.print();

  const auto cross = fuse::core::intersection_epoch(base.new_data_cm,
                                                   fuse_curve.new_data_cm);
  const std::size_t last = base.new_data_cm.size() - 1;
  std::printf("\nSummary (last layer):\n");
  std::printf("  FUSE new-data MAE @5 epochs:      %.1f cm (paper 8.3)\n",
              fuse_curve.new_data_cm[std::min<std::size_t>(5, last)]);
  std::printf("  baseline new-data MAE @5 epochs:  %.1f cm (paper 9.6)\n",
              base.new_data_cm[std::min<std::size_t>(5, last)]);
  std::printf("  intersection:                     %s (paper epoch 16)\n",
              fuse::bench::fmt_intersection(cross).c_str());
  std::printf("  baseline original MAE @%zu:        %.1f cm (paper 31.0)\n",
              last, base.original_cm[last]);
  std::printf("  FUSE original MAE @%zu:            %.1f cm (paper 7.8)\n",
              last, fuse_curve.original_cm[last]);
  return 0;
}
