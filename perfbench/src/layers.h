#pragma once
// Per-layer replay for the traced run: the workload's own inputs go
// through each layer's public functions, one span per call, at the shapes
// the server formed.  Every metric is a median over repeated calls.

#include <string>
#include <utility>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace perfbench {

struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// The end-to-end metric and workload it should move.
  std::string moves;
};

/// Replays the dsp, featurize, nn, adapt and clone layers on `w`'s inputs,
/// recording spans into `tracer`.  Workloads without cubes replay the DSP
/// layer on cubes simulated from `seed`.  `scratch_dir` receives the clone
/// checkpoint written by the clone layer.
std::vector<LayerMetric> replay_layers(const Workload& w, std::uint64_t seed,
                                       Tracer& tracer,
                                       const std::string& scratch_dir);

}  // namespace perfbench
