#include "serve/telemetry.h"

namespace fuse::serve {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kRehydrate: return "rehydrate";
    case Stage::kDspCube: return "dsp_cube";
    case Stage::kFeaturize: return "featurize";
    case Stage::kInfer: return "infer";
    case Stage::kAdapt: return "adapt";
    case Stage::kResultPoll: return "result_poll";
    case Stage::kShed: return "shed";
    case Stage::kMigrate: return "migrate";
  }
  return "?";
}

StageSnapshot snapshot_stage(Stage s, const LatencyHistogram& h) {
  StageSnapshot out;
  out.stage = stage_name(s);
  out.count = h.count();
  out.total_ms = h.sum() * 1e3;
  out.mean_ms = h.mean() * 1e3;
  out.p50_ms = h.p50() * 1e3;
  out.p95_ms = h.p95() * 1e3;
  out.p99_ms = h.p99() * 1e3;
  out.max_ms = h.max() * 1e3;
  return out;
}

}  // namespace fuse::serve
