#include "workload.h"

#include <optional>
#include <stdexcept>

#include "human/anthropometrics.h"
#include "human/movements.h"
#include "human/surface.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

// Why each workload (README.md has the per-layer predictions):
//  clouds_readonly  point clouds, the paper's input, no labels: featurize
//                   and the nn forward carry it (batches of about one frame
//                   at 16 sessions; the serving thread is ~60% busy).
//  cubes_readonly   raw radar cubes through submit_cube: the DSP layer
//                   dominates; the control workload for any nn-only gain.
//                   Four sessions keep the serving thread ~60% busy.
//  adapt_mixed      point clouds; one session per shard sends labels and
//                   adapts online (paper 4.3), the write path beside reads.
//                   Warm-up fills the 64-sample adaptation buffers first.
const WorkloadSpec kWorkloads[] = {
    {"clouds_readonly", Kind::kClouds, 16, 0, 1.0},
    {"cubes_readonly", Kind::kCubes, 4, 0, 1.0},
    {"adapt_mixed", Kind::kClouds, 16, 4, 1.0},
};

// Set-up sizing: a small synthetic MARS-like dataset (4 subjects x 10
// movements x kFramesPerSequence frames) and a short supervised train.
constexpr std::size_t kFramesPerSequence = 40;
constexpr std::size_t kTrainEpochs = 2;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

double frame_period_s() {
  return fuse::data::BuilderConfig().radar.frame_period_s;
}

CubeClips simulate_cube_clips(std::uint64_t seed, std::size_t clips,
                              std::size_t frames) {
  const fuse::data::BuilderConfig dcfg;  // the dataset's radar and surface
  const double dt = dcfg.radar.frame_period_s;
  // The dataset builder's finite-difference step for joint velocities.
  const double vel_dt = 0.25 * dt;
  CubeClips out;
  out.frames = frames;
  fuse::util::Rng rng(mix(seed ^ 0xc0be));
  std::vector<fuse::human::Pose> poses, next;
  std::vector<std::size_t> subject;
  for (std::size_t c = 0; c < clips; ++c) {
    const std::size_t m = c % fuse::human::kNumMovements;
    const std::size_t subj = m % fuse::human::kNumSubjects;
    fuse::human::MovementGenerator gen(fuse::human::make_subject(subj),
                                       static_cast<fuse::human::Movement>(m),
                                       rng.fork());
    // A fixed point in the movement, so seeds differ in radar noise and
    // surface samples rather than in which poses are hard.
    constexpr double kStart = 2.0;
    for (std::size_t i = 0; i < frames; ++i) {
      const double t = kStart + static_cast<double>(i) * dt;
      poses.push_back(gen.pose_at(t));
      next.push_back(gen.pose_at(t + vel_dt));
      subject.push_back(subj);
    }
  }
  std::vector<std::uint64_t> seeds(poses.size());
  for (auto& s : seeds) s = rng.next_u64();
  std::vector<std::optional<fuse::radar::RadarCube>> cubes(poses.size());
  fuse::util::parallel_for(0, poses.size(), [&](std::size_t lo,
                                                std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      fuse::util::Rng frng(seeds[i]);
      const auto scene = fuse::human::sample_body_surface(
          poses[i], next[i], static_cast<float>(vel_dt),
          fuse::human::make_subject(subject[i]).body, dcfg.surface, frng);
      cubes[i] = fuse::radar::simulate_frame(dcfg.radar, scene, frng);
    }
  });
  for (auto& c : cubes) out.cubes.push_back(std::move(*c));
  out.labels = std::move(poses);
  return out;
}

Workload::Workload(const WorkloadSpec& spec, std::uint64_t seed,
                   const CubeClips* cubes)
    : spec_(spec), seed_(seed), cube_clips_(cubes) {
  fuse::core::PipelineConfig cfg;
  cfg.data.frames_per_sequence = kFramesPerSequence;
  cfg.fusion_m = 1;
  cfg.train.epochs = kTrainEpochs;
  pl_ = std::make_unique<fuse::core::FusePipeline>(cfg);
  pl_->prepare_data();
  pl_->train_baseline();

  if (spec_.kind == Kind::kCubes) {
    if (cube_clips_ == nullptr || cube_clips_->cubes.empty())
      throw std::invalid_argument("perfbench: cube workload without cubes");
    const std::size_t n = cube_clips_->cubes.size();
    for (std::size_t first = 0; first < n; first += cube_clips_->frames)
      clips_.push_back({static_cast<std::uint32_t>(first),
                        static_cast<std::uint32_t>(cube_clips_->frames)});
    labels_ = cube_clips_->labels;
    ref_clouds_.resize(n);
    ref_once_ = std::vector<std::once_flag>(n);
    return;
  }
  // Point clouds: every dataset sequence is a clip.
  const auto& ds = pl_->dataset();
  for (const auto& [first, count] : ds.sequences) {
    clips_.push_back({static_cast<std::uint32_t>(frame_of_.size()),
                      static_cast<std::uint32_t>(count)});
    for (std::size_t i = 0; i < count; ++i) {
      frame_of_.push_back(static_cast<std::uint32_t>(first + i));
      labels_.push_back(ds.frames[first + i].label);
    }
  }
}

const std::vector<fuse::radar::RadarCube>& Workload::cubes() const {
  static const std::vector<fuse::radar::RadarCube> kNone;
  return cube_clips_ != nullptr ? cube_clips_->cubes : kNone;
}

std::uint32_t Workload::input_of(std::size_t s, std::uint32_t k) const {
  const Clip& clip = clips_[s % clips_.size()];
  const std::uint64_t offset = mix(seed_ ^ mix(s + 1)) % clip.length;
  return clip.first + static_cast<std::uint32_t>((offset + k) % clip.length);
}

fuse::serve::SubmitResult Workload::submit(fuse::serve::Server& server,
                                           fuse::serve::SessionId id,
                                           std::uint32_t input,
                                           bool with_label) const {
  const fuse::human::Pose* label = with_label ? &labels_[input] : nullptr;
  if (spec_.kind == Kind::kCubes)
    return server.submit_cube(id, cube_clips_->cubes[input], label);
  return server.submit_frame(id, pl_->dataset().frames[frame_of_[input]].cloud,
                             label);
}

std::unique_ptr<fuse::serve::Server> Workload::make_server(
    std::size_t sessions, std::size_t adapting,
    std::vector<fuse::serve::SessionId>* ids) const {
  fuse::serve::ServeConfig cfg;
  cfg.num_shards = 4;
  cfg.max_batch = 16;
  cfg.backend = fuse::nn::Backend::kGemm;
  cfg.max_sessions = sessions;
  if (spec_.kind == Kind::kCubes) cfg.processor = &pl_->processor();
  auto server = std::make_unique<fuse::serve::Server>(&pl_->predictor(),
                                                      &pl_->model(), cfg);
  ids->clear();
  for (std::size_t s = 0; s < sessions; ++s) {
    fuse::serve::SessionConfig scfg = cfg.session;
    scfg.adapt.enabled = s < adapting;
    ids->push_back(server->open_session(scfg));
  }
  return server;
}

const fuse::radar::PointCloud& Workload::cloud(std::uint32_t input) const {
  if (spec_.kind == Kind::kClouds)
    return pl_->dataset().frames[frame_of_[input]].cloud;
  std::call_once(ref_once_[input], [&] {
    ref_clouds_[input] = std::make_unique<fuse::radar::PointCloud>(
        pl_->processor().process_reference(cube_clips_->cubes[input]).cloud);
  });
  return *ref_clouds_[input];
}

fuse::human::Pose Workload::reference(
    const std::vector<std::uint32_t>& window) const {
  std::vector<const fuse::radar::PointCloud*> clouds;
  for (const std::uint32_t in : window) clouds.push_back(&cloud(in));
  const auto& pred = pl_->predictor();
  fuse::tensor::Tensor x = pred.alloc_batch(1);
  pred.featurize_window(clouds.data(), clouds.size(), x.data());
  return pred.predict(pl_->model(), x, fuse::nn::Backend::kGemm).front();
}

}  // namespace perfbench
