#include "serve/telemetry.h"

#include <stdexcept>

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

fuse::nn::Backend backend_from_index(std::size_t i) {
  switch (i) {
    case 0: return fuse::nn::Backend::kNaive;
    case 1: return fuse::nn::Backend::kGemm;
    default: throw std::out_of_range("backend_from_index");
  }
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

BackendSnapshot snapshot_backend(fuse::nn::Backend b, const BackendUse& use) {
  BackendSnapshot out;
  out.backend = fuse::nn::backend_name(b);
  out.batches = use.batches;
  out.frames = use.frames;
  out.mean_batch = use.batches ? static_cast<double>(use.frames) /
                                     static_cast<double>(use.batches)
                               : 0.0;
  out.infer_mean_ms = use.infer.mean() * 1e3;
  out.infer_p50_ms = use.infer.p50() * 1e3;
  out.infer_p95_ms = use.infer.p95() * 1e3;
  out.infer_p99_ms = use.infer.p99() * 1e3;
  out.infer_max_ms = use.infer.max() * 1e3;
  return out;
}

}  // namespace fuse::serve
