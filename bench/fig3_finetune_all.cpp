// Reproduces Figure 3 (and the "All layers" half of Table 2): MAE versus
// fine-tuning epoch for the supervised baseline and the meta-learned FUSE
// model, fine-tuning ALL layers on the held-out (user 4, "right limb
// extension") data.
//
// Paper shape:
//  * baseline starts low on original data (6.7 cm) and high on new data;
//    fine-tuning improves new-data MAE but original-data MAE climbs
//    steadily (catastrophic forgetting: 10.6 cm at the intersection,
//    18.7 cm by epoch 50);
//  * FUSE starts high on new data (12.4 cm — a generalist initialisation),
//    drops to ~6 cm within 5 epochs and keeps original-data MAE flat;
//  * the baseline needs ~26 epochs to catch FUSE on new data (~4x slower).
//
// Usage: fig3_finetune_all [--scale=1.0] [--paper] [--out=DIR]

#include <cstdio>

#include "experiment_common.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const fuse::util::Cli cli(argc, argv);
  const auto cfg = fuse::bench::AdaptationConfig::from_cli(cli);

  std::printf("Figure 3 — fine-tune ALL layers (baseline vs FUSE)\n");
  fuse::bench::AdaptationLab lab(cfg, cli.out_dir());
  const auto [base, fuse_curve] = lab.run_finetune(/*last_layer_only=*/false);
  lab.write_curves_csv(cli.out_dir() + "/fig3_curves.csv", base, fuse_curve);

  // Console rendition of the two panels.
  fuse::util::Table ta("\nFigure 3(a): MAE on ORIGINAL data vs fine-tune "
                       "epoch (cm)");
  ta.set_header({"epoch", "baseline", "FUSE"});
  fuse::util::Table tb("Figure 3(b): MAE on NEW data vs fine-tune epoch "
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
  std::printf("\nSummary (all layers):\n");
  std::printf("  FUSE new-data MAE @5 epochs:      %.1f cm (paper 6.0)\n",
              fuse_curve.new_data_cm[std::min<std::size_t>(5, last)]);
  std::printf("  baseline new-data MAE @5 epochs:  %.1f cm (paper 9.0)\n",
              base.new_data_cm[std::min<std::size_t>(5, last)]);
  std::printf("  intersection:                     %s (paper epoch 26)\n",
              fuse::bench::fmt_intersection(cross).c_str());
  std::printf("  baseline original MAE @%zu:        %.1f cm (paper 18.7 — "
              "forgetting)\n",
              last, base.original_cm[last]);
  std::printf("  FUSE original MAE @%zu:            %.1f cm (paper 6.4 — "
              "retained)\n",
              last, fuse_curve.original_cm[last]);
  return 0;
}
