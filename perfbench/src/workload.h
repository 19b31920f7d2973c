#pragma once
// The three workloads and their set-up: dataset synthesis, featurizer fit,
// a short supervised train, the per-session input streams, and the offline
// batch-1 reference the output check compares against.
//
// The dataset and model are the same for every seed; the seed chooses the
// traffic: the offset each session replays its clip from, and the cube
// workload's surface samples and radar noise.  The server only ever sees the
// generated frames.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "human/skeleton.h"
#include "radar/simulator.h"
#include "serve/server.h"

namespace perfbench {

enum class Kind { kClouds, kCubes };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  std::size_t sessions;   ///< fixed population of the latency phase
  std::size_t adapting;   ///< sessions 0..adapting-1 send labels and adapt
  double fill_s;          ///< unmeasured open-loop lead-in before the window
};

/// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

/// Radar frame period, from the dataset's radar configuration (10 Hz).
double frame_period_s();

/// Raw radar cubes with their ground-truth poses, clip after clip: one clip
/// of `frames` consecutive frames per movement (a fixed subject and start
/// each), sampled into body-surface scatterers and run through the
/// IF-signal simulator with seeded noise.  They are what a radar sends, so
/// they are made before the set-up and not timed with it.
struct CubeClips {
  std::size_t frames = 0;  ///< per clip
  std::vector<fuse::radar::RadarCube> cubes;
  std::vector<fuse::human::Pose> labels;
};
CubeClips simulate_cube_clips(std::uint64_t seed, std::size_t clips,
                              std::size_t frames);

class Workload {
 public:
  /// The timed set-up body: builds and trains the model.  Cube workloads
  /// borrow `cubes` (which must outlive the workload).
  Workload(const WorkloadSpec& spec, std::uint64_t seed,
           const CubeClips* cubes = nullptr);

  const WorkloadSpec& spec() const { return spec_; }
  const fuse::core::FusePipeline& pipeline() const { return *pl_; }
  std::size_t window_frames() const {
    return pl_->predictor().window_frames();
  }

  /// Input id of session `s`'s k-th frame.  Session s replays clip
  /// s mod clips (consecutive frames of one subject and movement), from a
  /// seeded offset, so fused windows are temporally coherent and every
  /// seed spreads sessions over the clips alike.
  std::uint32_t input_of(std::size_t s, std::uint32_t k) const;
  const fuse::human::Pose& label(std::uint32_t input) const {
    return labels_[input];
  }

  /// Submits input `input` to session `id` (with its ground-truth label
  /// when `with_label`).
  fuse::serve::SubmitResult submit(fuse::serve::Server& server,
                                   fuse::serve::SessionId id,
                                   std::uint32_t input, bool with_label) const;

  /// Opens a 4-shard, GEMM-backend, max_batch 16 server borrowing the
  /// trained model (and the DSP processor for cube workloads) with
  /// `sessions` sessions, of which the first `adapting` adapt online.
  std::unique_ptr<fuse::serve::Server> make_server(
      std::size_t sessions, std::size_t adapting,
      std::vector<fuse::serve::SessionId>* ids) const;

  /// Offline batch-1 reference for a fused window of inputs (oldest
  /// first): Predictor::featurize_window -> Predictor::predict, after
  /// Processor::process_reference for cubes.  Thread-safe.
  fuse::human::Pose reference(const std::vector<std::uint32_t>& window) const;

  /// The point cloud of an input (cube workloads: the reference DSP
  /// output, computed on first use per input).
  const fuse::radar::PointCloud& cloud(std::uint32_t input) const;

  /// The cube workload's cubes (empty for point-cloud workloads).
  const std::vector<fuse::radar::RadarCube>& cubes() const;

 private:
  struct Clip {
    std::uint32_t first = 0;  ///< input id of its first frame
    std::uint32_t length = 0;
  };

  WorkloadSpec spec_;
  std::uint64_t seed_;
  const CubeClips* cube_clips_;
  std::unique_ptr<fuse::core::FusePipeline> pl_;
  std::vector<Clip> clips_;
  std::vector<fuse::human::Pose> labels_;
  std::vector<std::uint32_t> frame_of_;  ///< point clouds: dataset frame
  // Cube workloads: reference clouds, computed on first use.
  mutable std::vector<std::unique_ptr<fuse::radar::PointCloud>> ref_clouds_;
  mutable std::vector<std::once_flag> ref_once_;
};

}  // namespace perfbench
