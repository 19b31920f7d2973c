// Tests for the streaming serving runtime: batched-vs-single-path
// equivalence, threaded stress with deterministic outputs, queue drop
// policies, session recycling, per-user online adaptation, telemetry,
// the sharded serve::Server API (shard equivalence, shard-stable
// hashing, per-shard overload engagement, SubmitResult semantics), and
// live cross-shard session migration (backlog replay, kMigrating
// retry-after, clone bit-exactness).

#include <gtest/gtest.h>

#include <cmath>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/tracking.h"
#include "nn/delta.h"
#include "nn/layers.h"
#include "nn/sequential.h"
#include "serve/clone_store/layout.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#include "json_check.h"

namespace {

using fuse::core::PoseTracker;
using fuse::human::Pose;
using fuse::radar::PointCloud;
using fuse::serve::accepted;
using fuse::serve::AdaptState;
using fuse::serve::DropPolicy;
using fuse::serve::PoseResult;
using fuse::serve::ServeConfig;
using fuse::serve::Server;
using fuse::serve::SessionConfig;
using fuse::serve::SubmitResult;

/// Shared environment: a prepared, untrained pipeline over a miniature
/// dataset.  Its biases get seeded non-zero values once: layers start at
/// zero bias, where a bias added before the accumulation and one added
/// after it give the same bits, so the path-equivalence tests below could
/// not see where the bias enters.
fuse::core::FusePipeline& world() {
  static fuse::core::FusePipeline* pipeline = [] {
    fuse::core::PipelineConfig cfg;
    cfg.data.frames_per_sequence = 40;
    cfg.fusion_m = 1;
    auto* p = new fuse::core::FusePipeline(cfg);
    p->prepare_data();
    fuse::util::Rng rng(0xb1a5);
    for (auto* param : p->model().params())
      if (param->ndim() == 1)
        for (std::size_t i = 0; i < param->numel(); ++i)
          param->data()[i] = rng.uniformf(-0.1f, 0.1f);
    return p;
  }();
  return *pipeline;
}

/// Frames of sequence `seq`, cycled to `count` entries.
std::vector<PointCloud> sequence_frames(std::size_t seq, std::size_t count) {
  const auto& ds = world().dataset();
  const auto [start, len] = ds.sequences.at(seq);
  std::vector<PointCloud> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(ds.frames[start + (i % len)].cloud);
  return out;
}

/// Exact equality: batching must not change a pose's bits (DESIGN §2).
void expect_pose_eq(const Pose& a, const Pose& b) {
  for (std::size_t j = 0; j < fuse::human::kNumJoints; ++j) {
    EXPECT_EQ(a.joints[j].x, b.joints[j].x) << "joint " << j;
    EXPECT_EQ(a.joints[j].y, b.joints[j].y) << "joint " << j;
    EXPECT_EQ(a.joints[j].z, b.joints[j].z) << "joint " << j;
  }
}

/// The single-session reference: one window + one tracker, batch size 1 —
/// exactly what FusePipeline::push_frame (+ PoseTracker) computes.
struct RefResult {
  Pose raw;
  Pose tracked;
};
std::vector<RefResult> reference_stream(const std::vector<PointCloud>& frames,
                                        const SessionConfig& cfg) {
  auto& pl = world();
  const auto& pred = pl.predictor();
  std::deque<PointCloud> window;
  PoseTracker tracker(cfg.tracker);
  std::vector<RefResult> out;
  out.reserve(frames.size());
  for (const auto& cloud : frames) {
    window.push_back(cloud);
    while (window.size() > pred.window_frames()) window.pop_front();
    RefResult r;
    r.raw = pred.predict_window(pl.model(),
                                {window.begin(), window.end()});
    r.tracked = cfg.tracking ? tracker.update(r.raw) : r.raw;
    out.push_back(r);
  }
  return out;
}

// ------------------------------------------------------- batched infer --

TEST(Serve, InferMatchesForwardExactly) {
  auto& model = world().model();
  fuse::util::Rng rng(123);
  fuse::tensor::Tensor x({4, 5, 8, 8});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.gauss());
  // forward() and infer() share one kernel path, so inference reproduces
  // the training outputs exactly.
  const auto y_train = model.forward(x);
  const auto y_infer = model.infer(x);
  ASSERT_EQ(y_train.shape(), y_infer.shape());
  for (std::size_t i = 0; i < y_train.numel(); ++i)
    EXPECT_EQ(y_train[i], y_infer[i]) << "element " << i;
  // The served model must also equal itself run child by child with each
  // Conv2d replaced by the per-sample reference.  Every other serve
  // oracle shares the served conv path, so only this one sees where the
  // (non-zero) bias enters the accumulation.
  const auto& seq = dynamic_cast<const fuse::nn::Sequential&>(model);
  auto y_ref = x;
  for (std::size_t c = 0; c < seq.size(); ++c) {
    const auto* conv = dynamic_cast<const fuse::nn::Conv2d*>(&seq.child(c));
    y_ref = conv ? fuse::nn::conv2d_reference_forward(*conv, y_ref)
                 : seq.child(c).infer(y_ref);
  }
  ASSERT_EQ(y_ref.shape(), y_infer.shape());
  for (std::size_t i = 0; i < y_ref.numel(); ++i)
    EXPECT_EQ(y_ref[i], y_infer[i]) << "reference element " << i;
}

TEST(Serve, BatchedPredictMatchesPerWindowPredict) {
  auto& pl = world();
  const auto& pred = pl.predictor();
  const auto frames = sequence_frames(0, 6);

  // Batch the three windows [0..2], [1..3], [2..4] into one forward pass.
  auto x = pred.alloc_batch(3);
  std::vector<std::vector<PointCloud>> windows;
  for (std::size_t i = 0; i < 3; ++i) {
    windows.push_back({frames[i], frames[i + 1], frames[i + 2]});
    pred.featurize_window(windows.back(), x.data() + i * 5 * 8 * 8);
  }
  const auto poses = pred.predict(pl.model(), x);
  ASSERT_EQ(poses.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    expect_pose_eq(poses[i], pred.predict_window(pl.model(), windows[i]));
}

// ------------------------------------------------ cross-session batching --

TEST(Serve, BatchedServerMatchesSingleSessionPath) {
  auto& pl = world();
  ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.session.queue_capacity = 64;  // hold the whole backlog: no drops here
  Server server(&pl.predictor(), &pl.model(), cfg);

  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kFrames = 30;
  std::vector<fuse::serve::SessionId> ids;
  std::vector<std::vector<PointCloud>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids.push_back(server.open_session());
    streams.push_back(sequence_frames(s, kFrames));
  }

  // Interleave submissions across sessions, then serve in micro-batches.
  for (std::size_t i = 0; i < kFrames; ++i)
    for (std::size_t s = 0; s < kSessions; ++s)
      ASSERT_TRUE(accepted(server.submit_frame(ids[s], streams[s][i])));
  server.drain();

  const auto stats = server.stats();
  EXPECT_EQ(stats.frames_out, kSessions * kFrames);
  EXPECT_GT(stats.mean_batch, 1.5);  // batching actually happened

  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto results = server.poll_results(ids[s]);
    const auto ref = reference_stream(streams[s], cfg.session);
    ASSERT_EQ(results.size(), kFrames);
    for (std::size_t i = 0; i < kFrames; ++i) {
      EXPECT_EQ(results[i].seq, i);
      expect_pose_eq(results[i].raw, ref[i].raw);
      expect_pose_eq(results[i].tracked, ref[i].tracked);
    }
  }
}

TEST(Serve, ThreadedStressDeterministicOutputs) {
  auto& pl = world();
  ServeConfig cfg;
  cfg.max_batch = 16;
  cfg.session.queue_capacity = 128;    // no drops: every frame must serve
  cfg.session.results_capacity = 256;
  Server server(&pl.predictor(), &pl.model(), cfg);

  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kFrames = 100;
  std::vector<fuse::serve::SessionId> ids;
  std::vector<std::vector<PointCloud>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids.push_back(server.open_session());
    streams.push_back(sequence_frames(s, kFrames));
  }

  server.start();
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kSessions; ++s) {
    producers.emplace_back([&, s] {
      for (std::size_t i = 0; i < kFrames; ++i)
        EXPECT_TRUE(accepted(server.submit_frame(ids[s], streams[s][i])));
    });
  }
  for (auto& t : producers) t.join();
  server.stop();  // final sweep serves everything still queued

  const auto stats = server.stats();
  EXPECT_EQ(stats.frames_in, kSessions * kFrames);
  EXPECT_EQ(stats.frames_out, kSessions * kFrames);
  EXPECT_EQ(stats.frames_dropped, 0u);

  // Outputs are deterministic and equal to the single-session path no
  // matter how producer threads interleaved with the scheduler.
  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto results = server.poll_results(ids[s]);
    const auto ref = reference_stream(streams[s], cfg.session);
    ASSERT_EQ(results.size(), kFrames);
    for (std::size_t i = 0; i < kFrames; ++i) {
      ASSERT_EQ(results[i].seq, i);  // FIFO per session
      expect_pose_eq(results[i].raw, ref[i].raw);
      expect_pose_eq(results[i].tracked, ref[i].tracked);
    }
  }
}

// ----------------------------------------------------------- drop policy --

TEST(Serve, DropOldestKeepsFreshestFrames) {
  auto& pl = world();
  ServeConfig cfg;
  cfg.session.queue_capacity = 4;
  cfg.session.drop_policy = DropPolicy::kDropOldest;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto id = server.open_session();
  const auto frames = sequence_frames(0, 10);

  for (const auto& f : frames)
    EXPECT_EQ(server.submit_frame(id, f), SubmitResult::kAccepted);
  server.drain();

  const auto results = server.poll_results(id);
  ASSERT_EQ(results.size(), 4u);
  // The four freshest frames survive, in order.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(results[i].seq, 6 + i);
  const auto stats = server.stats();
  EXPECT_EQ(stats.frames_dropped, 6u);
  // Drop causes: kDropOldest evicts accepted frames, it never rejects.
  EXPECT_EQ(stats.queue_evicted, 6u);
  EXPECT_EQ(stats.queue_rejected, 0u);
  EXPECT_EQ(stats.queue_depth_hwm, 4u);
  EXPECT_NEAR(stats.drop_rate, 0.6, 1e-9);  // 6 dropped / 10 offered
}

TEST(Serve, DropNewestRejectsWhenFull) {
  auto& pl = world();
  ServeConfig cfg;
  cfg.session.queue_capacity = 4;
  cfg.session.drop_policy = DropPolicy::kDropNewest;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto id = server.open_session();
  const auto frames = sequence_frames(0, 10);

  std::size_t taken = 0, full = 0;
  for (const auto& f : frames) {
    const auto r = server.submit_frame(id, f);
    taken += accepted(r);
    full += r == SubmitResult::kQueueFull;
  }
  EXPECT_EQ(taken, 4u);
  EXPECT_EQ(full, 6u);  // the lossy bool is now a distinct code
  server.drain();

  const auto results = server.poll_results(id);
  ASSERT_EQ(results.size(), 4u);
  // The four oldest frames survive; note seq numbers only count accepted
  // frames, so they are contiguous from 0.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(results[i].seq, i);
  const auto stats = server.stats();
  // Drop causes: kDropNewest rejects at the door, it never evicts; the
  // rejected frames never enter frames_in but do count as offered.
  EXPECT_EQ(stats.frames_in, 4u);
  EXPECT_EQ(stats.queue_rejected, 6u);
  EXPECT_EQ(stats.queue_evicted, 0u);
  EXPECT_NEAR(stats.drop_rate, 0.6, 1e-9);  // 6 dropped / (4 + 6) offered
}

// ------------------------------------------------------ session recycle --

TEST(Serve, RecycleClearsStreamingState) {
  auto& pl = world();
  Server server(&pl.predictor(), &pl.model());
  const auto id = server.open_session();

  // Subject A streams five frames...
  for (const auto& f : sequence_frames(1, 5)) server.submit_frame(id, f);
  server.drain();
  server.poll_results(id);

  // ...then the session is recycled for subject B.  Without the reset,
  // subject A's stale frames would pollute B's first fusion window.
  server.recycle_session(id);
  const auto frames_b = sequence_frames(2, 3);
  for (const auto& f : frames_b) server.submit_frame(id, f);
  server.drain();
  const auto results = server.poll_results(id);
  const auto ref = reference_stream(frames_b, SessionConfig{});
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(results[i].seq, i);  // the new subject's stream restarts at 0
    expect_pose_eq(results[i].raw, ref[i].raw);
    expect_pose_eq(results[i].tracked, ref[i].tracked);
  }
}

TEST(Serve, RecycleWhileSchedulerRunsIsSafe) {
  // recycle_session must be callable from any thread while the scheduler
  // thread is serving: producer-side state clears immediately, scheduler
  // -side state resets on the next pass, in-flight results are discarded.
  auto& pl = world();
  ServeConfig cfg;
  cfg.session.queue_capacity = 64;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto id = server.open_session();
  const auto frames = sequence_frames(0, 200);

  server.start();
  for (std::size_t i = 0; i < 150; ++i) {
    server.submit_frame(id, frames[i]);
    if (i % 50 == 25) server.recycle_session(id);
  }
  server.recycle_session(id);
  // After the final recycle, a fresh three-frame stream must match the
  // single-session reference exactly, seq starting from 0.
  const auto frames_b = sequence_frames(2, 3);
  for (const auto& f : frames_b) server.submit_frame(id, f);
  server.stop();

  std::vector<PoseResult> tail;
  for (const auto& r : server.poll_results(id))
    tail.push_back(r);  // pre-recycle results were discarded or polled away
  const auto ref = reference_stream(frames_b, cfg.session);
  ASSERT_GE(tail.size(), 3u);
  const std::size_t off = tail.size() - 3;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(tail[off + i].seq, i);
    expect_pose_eq(tail[off + i].raw, ref[i].raw);
    expect_pose_eq(tail[off + i].tracked, ref[i].tracked);
  }
}

TEST(Serve, PipelineResetStreamMatchesFreshWindow) {
  auto& pl = world();
  // Pollute the pipeline's stream buffer with subject A frames.
  for (const auto& f : sequence_frames(3, 4)) pl.push_frame(f);
  // reset_stream: the next pushed frame starts a fresh fusion window.
  pl.reset_stream();
  const auto frames_b = sequence_frames(4, 1);
  const auto pose = pl.push_frame(frames_b[0]);
  expect_pose_eq(pose, pl.predict_window({frames_b[0]}));
  pl.reset_stream();
}

// ---------------------------------------------------- online adaptation --

TEST(Serve, OnlineAdaptationLifecycle) {
  auto& pl = world();
  ServeConfig cfg;
  cfg.session.adapt.enabled = true;
  cfg.session.adapt.min_samples = 8;
  cfg.session.adapt.round_every = 4;
  cfg.session.adapt.steps_per_round = 2;
  Server server(&pl.predictor(), &pl.model(), cfg);

  SessionConfig plain;
  plain.adapt.enabled = false;
  const auto adapting = server.open_session();
  const auto shared = server.open_session(plain);

  const auto& ds = world().dataset();
  const auto [start, len] = ds.sequences.at(5);
  ASSERT_GE(len, 10u);

  // Below min_samples: still collecting, still served by the shared model.
  for (std::size_t i = 0; i < 7; ++i) {
    const auto& frame = ds.frames[start + i];
    server.submit_frame(adapting, frame.cloud, &frame.label);
    server.submit_frame(shared, frame.cloud);
  }
  server.drain();
  auto stats = server.stats();
  ASSERT_EQ(stats.per_session.size(), 2u);
  EXPECT_EQ(stats.per_session[0].adapt_state, AdaptState::kCollecting);
  EXPECT_EQ(stats.per_session[0].adapt_rounds, 0u);
  EXPECT_EQ(stats.per_session[1].adapt_state, AdaptState::kShared);
  for (const auto& r : server.poll_results(adapting))
    EXPECT_FALSE(r.adapted_model);

  // The 8th labeled frame triggers round 1: the session clones the
  // meta-initialization and fine-tunes it online.
  const auto& f8 = ds.frames[start + 7];
  server.submit_frame(adapting, f8.cloud, &f8.label);
  server.drain();
  // f8 itself was served before the round ran, still by the shared model.
  for (const auto& r : server.poll_results(adapting))
    EXPECT_FALSE(r.adapted_model);
  stats = server.stats();
  EXPECT_EQ(stats.per_session[0].adapt_state, AdaptState::kAdapted);
  EXPECT_EQ(stats.per_session[0].adapt_rounds, 1u);
  EXPECT_GT(stats.per_session[0].last_adapt_loss, 0.0f);

  // Subsequent frames are served by the per-user clone, whose predictions
  // now differ from the shared model's; the plain session is untouched.
  const auto& f9 = ds.frames[start + 8];
  server.submit_frame(adapting, f9.cloud);
  server.submit_frame(shared, f9.cloud);
  server.drain();
  const auto adapted_results = server.poll_results(adapting);
  ASSERT_EQ(adapted_results.size(), 1u);
  EXPECT_TRUE(adapted_results.back().adapted_model);
  EXPECT_EQ(server.stats().per_session[1].adapt_state, AdaptState::kShared);

  // More labeled frames keep the adaptation going (round cadence).
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& frame = ds.frames[start + (9 + i) % len];
    server.submit_frame(adapting, frame.cloud, &frame.label);
  }
  server.drain();
  EXPECT_GE(server.stats().per_session[0].adapt_rounds, 2u);

  // The adapted head fits its user's labeled frames better than the
  // shared head does.  Replay frames 0..7 unlabeled through both sessions
  // (their fusion windows agree from the third frame on) and compare the
  // raw poses' L1 error against the labels.
  (void)server.poll_results(adapting);
  (void)server.poll_results(shared);
  for (std::size_t i = 0; i < 8; ++i) {
    server.submit_frame(adapting, ds.frames[start + i].cloud);
    server.submit_frame(shared, ds.frames[start + i].cloud);
  }
  server.drain();
  const auto replay_adapted = server.poll_results(adapting);
  const auto replay_shared = server.poll_results(shared);
  ASSERT_EQ(replay_adapted.size(), 8u);
  ASSERT_EQ(replay_shared.size(), 8u);
  double adapted_l1 = 0.0;
  double shared_l1 = 0.0;
  for (std::size_t i = 2; i < 8; ++i) {
    EXPECT_TRUE(replay_adapted[i].adapted_model);
    const Pose& label = ds.frames[start + i].label;
    for (std::size_t j = 0; j < fuse::human::kNumJoints; ++j) {
      const auto l1 = [&](const Pose& p) {
        return std::abs(p.joints[j].x - label.joints[j].x) +
               std::abs(p.joints[j].y - label.joints[j].y) +
               std::abs(p.joints[j].z - label.joints[j].z);
      };
      adapted_l1 += l1(replay_adapted[i].raw);
      shared_l1 += l1(replay_shared[i].raw);
    }
  }
  EXPECT_LT(adapted_l1, shared_l1);
}

TEST(Serve, AdaptationLeavesTheTrunkFrozenAndCostsOneHead) {
  // A round trains the session's clone of the head alone: after several
  // rounds on two sessions the shared model is bit-for-bit unchanged, and
  // each resident clone costs the head's params + grads (fc2, 512 x 57
  // weights + 57 biases), not the whole network's.
  auto& pl = world();
  const std::string dir = ::testing::TempDir() + "fuse_serve_frozen_trunk";
  std::filesystem::remove_all(dir);
  std::vector<std::vector<float>> before;
  for (const auto* t : std::as_const(pl.model()).params())
    before.emplace_back(t->data(), t->data() + t->numel());

  ServeConfig cfg;
  cfg.session.adapt.enabled = true;
  cfg.session.adapt.min_samples = 8;
  cfg.session.adapt.round_every = 4;
  cfg.clone_store.dir = dir;  // the store accounts for resident clones
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto a = server.open_session();
  const auto b = server.open_session();
  const auto& ds = pl.dataset();
  for (std::size_t i = 0; i < 20; ++i) {
    for (const auto& [id, seq] : {std::pair{a, 5}, std::pair{b, 6}}) {
      const auto [start, len] = ds.sequences.at(seq);
      const auto& f = ds.frames[start + i % len];
      ASSERT_TRUE(accepted(server.submit_frame(id, f.cloud, &f.label)));
    }
    server.drain();
  }
  const auto stats = server.stats();
  for (const auto& row : stats.per_session) EXPECT_GE(row.adapt_rounds, 3u);

  ASSERT_EQ(stats.clone_store.resident, 2u);
  const std::size_t per_clone =
      stats.clone_store.resident_bytes / stats.clone_store.resident;
  EXPECT_EQ(per_clone, (512u * 57u + 57u) * 2u * sizeof(float));
  EXPECT_LE(static_cast<double>(per_clone), 0.29 * 1024 * 1024);

  const auto after = std::as_const(pl.model()).params();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_EQ(std::memcmp(after[i]->data(), before[i].data(),
                          before[i].size() * sizeof(float)),
              0)
        << "parameter tensor " << i;
  std::filesystem::remove_all(dir);
}

TEST(Serve, MixedModelPassMatchesBatchOnePredict) {
  // One pass holds frames of five sessions over three heads: two
  // sessions on the shared head, two adapted sessions with different
  // heads, and one adapted session that a NaN frame later in the same
  // pass quarantines.  Quarantine drops that head mid-pass, so all of
  // that session's frames in the pass, including the one collected while
  // it still held its head, are served by the shared head.  The pass runs
  // one trunk batch and then each frame's head, and every raw pose must
  // equal a batch-1 Predictor::predict through the full shared model
  // carrying the head its session holds at the end of the pass.
  auto& pl = world();
  const auto& pred = pl.predictor();
  const std::string dir = ::testing::TempDir() + "fuse_serve_mixed_pass";
  std::filesystem::remove_all(dir);
  ServeConfig cfg;
  cfg.max_batch = 64;
  cfg.session.queue_capacity = 64;
  cfg.clone_store.dir = dir;  // persist_clones() exposes the clones
  Server server(&pl.predictor(), &pl.model(), cfg);

  SessionConfig plain;
  SessionConfig adapting;
  adapting.adapt.enabled = true;
  adapting.adapt.min_samples = 8;
  adapting.adapt.round_every = 4;
  adapting.adapt.steps_per_round = 2;
  adapting.quarantine_after = 1;

  struct Subject {
    fuse::serve::SessionId id;
    std::size_t seq;                  ///< dataset sequence it streams
    std::vector<PointCloud> history;  ///< clouds that entered its window
  };
  std::vector<Subject> subjects;
  for (std::size_t k = 0; k < 5; ++k)
    subjects.push_back({server.open_session(k < 2 ? plain : adapting), k, {}});
  Subject& quarantined = subjects[4];
  const auto& ds = pl.dataset();
  const auto frame_of = [&](const Subject& s, std::size_t i) -> const auto& {
    const auto [start, len] = ds.sequences.at(s.seq);
    return ds.frames[start + i % len];
  };

  // Eight labeled frames give each adapting session its own head.
  for (std::size_t i = 0; i < 8; ++i)
    for (auto& s : subjects) {
      const auto& f = frame_of(s, i);
      ASSERT_TRUE(accepted(server.submit_frame(
          s.id, f.cloud, s.seq < 2 ? nullptr : &f.label)));
      s.history.push_back(f.cloud);
    }
  server.drain();
  for (auto& s : subjects) {
    EXPECT_EQ(server.stats().per_session.at(s.seq).adapt_state,
              s.seq < 2 ? AdaptState::kShared : AdaptState::kAdapted);
    (void)server.poll_results(s.id);
  }

  // The mixed pass: three unlabeled frames per session, except that the
  // quarantined session's second frame is NaN.
  PointCloud bad = frame_of(quarantined, 9).cloud;
  ASSERT_FALSE(bad.points.empty());
  bad.points[0].x = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t i = 8; i < 11; ++i)
    for (auto& s : subjects) {
      if (&s == &quarantined && i == 9) {
        ASSERT_TRUE(accepted(server.submit_frame(s.id, bad)));
        continue;
      }
      ASSERT_TRUE(accepted(server.submit_frame(s.id, frame_of(s, i).cloud)));
      s.history.push_back(frame_of(s, i).cloud);
    }
  ASSERT_EQ(server.run_once(), 14u);  // one pass serves every clean frame
  const auto stats = server.stats();
  EXPECT_TRUE(stats.per_session.at(quarantined.seq).quarantined);
  EXPECT_EQ(stats.in_flight, 0u);

  // The heads each session holds after the pass: the clone store's
  // bit-exact checkpoints of the two surviving heads, taken against the
  // shared head; none for the quarantined session.
  server.persist_clones();
  std::vector<std::unique_ptr<fuse::nn::Module>> heads;
  for (const auto& s : subjects) {
    const std::string path = fuse::serve::layout::clone_path(dir, s.id);
    if (s.seq < 2 || &s == &quarantined) {
      EXPECT_FALSE(std::filesystem::exists(path)) << "session " << s.id;
      heads.push_back(nullptr);
      continue;
    }
    heads.push_back(fuse::nn::rehydrate_from_delta(
        fuse::serve::shared_head(pl.model()),
        fuse::nn::ParamDelta::load_file(path)));
  }
  // The two heads differ, so a row served by the wrong one would show.
  const auto* w_a = std::as_const(*heads[2]).params().front();
  const auto* w_b = std::as_const(*heads[3]).params().front();
  ASSERT_NE(std::memcmp(w_a->data(), w_b->data(), w_a->numel() * 4), 0);

  for (std::size_t k = 0; k < subjects.size(); ++k) {
    const Subject& s = subjects[k];
    // The full model a batch-1 forward runs: the shared model with the
    // session's head, if it has one, copied into its last child.
    const auto model = pl.model().clone();
    if (heads[k]) {
      auto& seq = dynamic_cast<fuse::nn::Sequential&>(*model);
      seq.child(seq.size() - 1).copy_params_from(*heads[k]);
    }
    const auto results = server.poll_results(s.id);
    const std::size_t served = &s == &quarantined ? 2 : 3;
    ASSERT_EQ(results.size(), served) << "session " << s.id;
    for (std::size_t r = 0; r < served; ++r) {
      if (r > 0) {
        EXPECT_GT(results[r].seq, results[r - 1].seq);
      }
      EXPECT_EQ(results[r].adapted_model, heads[k] != nullptr);
      // The window the r-th served frame saw: the history up to it.
      const std::size_t end = s.history.size() - served + r + 1;
      const std::size_t begin = end - std::min(end, pred.window_frames());
      const std::vector<PointCloud> window(s.history.begin() + begin,
                                           s.history.begin() + end);
      expect_pose_eq(results[r].raw, pred.predict_window(*model, window));
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Serve, QuarantineClearsBufferedLabelCount) {
  // Dropping a quarantined session's adaptation empties its label buffer,
  // and the stats say so.
  auto& pl = world();
  ServeConfig cfg;
  cfg.session.quarantine_after = 2;
  cfg.session.adapt.enabled = true;
  cfg.session.adapt.min_samples = 10;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto id = server.open_session();

  const auto& ds = world().dataset();
  const auto [start, len] = ds.sequences.at(5);
  ASSERT_GE(len, 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto& f = ds.frames[start + i];
    ASSERT_TRUE(accepted(server.submit_frame(id, f.cloud, &f.label)));
  }
  server.drain();
  auto row = server.stats().per_session.at(0);
  ASSERT_EQ(row.adapt_rounds, 1u);
  ASSERT_EQ(row.adapt_buffered, 10u);

  PointCloud bad = ds.frames[start].cloud;
  ASSERT_FALSE(bad.points.empty());
  bad.points[0].y = std::numeric_limits<float>::quiet_NaN();
  ASSERT_TRUE(accepted(server.submit_frame(id, bad)));
  ASSERT_TRUE(accepted(server.submit_frame(id, bad)));
  server.drain();
  row = server.stats().per_session.at(0);
  EXPECT_TRUE(row.quarantined);
  EXPECT_EQ(row.adapt_buffered, 0u);
}

// -------------------------------------------------------------- telemetry --

TEST(Serve, LatencyHistogramQuantiles) {
  fuse::serve::LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  // 100 samples at ~1 ms, 10 at ~100 ms.
  for (int i = 0; i < 100; ++i) h.record(1e-3);
  for (int i = 0; i < 10; ++i) h.record(0.1);
  EXPECT_EQ(h.count(), 110u);
  EXPECT_NEAR(h.p50(), 1e-3, 0.5e-3);
  EXPECT_NEAR(h.p99(), 0.1, 0.05);
  EXPECT_NEAR(h.mean(), (100 * 1e-3 + 10 * 0.1) / 110.0, 1e-6);
  EXPECT_NEAR(h.max(), 0.1, 1e-9);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(Serve, StatsCountersAndLimits) {
  auto& pl = world();
  ServeConfig cfg;
  cfg.max_sessions = 2;
  cfg.max_batch = 4;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto a = server.open_session();
  const auto b = server.open_session();
  EXPECT_THROW(server.open_session(), std::runtime_error);
  EXPECT_EQ(server.session_count(), 2u);

  for (const auto& f : sequence_frames(6, 6)) {
    server.submit_frame(a, f);
    server.submit_frame(b, f);
  }
  server.drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.frames_in, 12u);
  EXPECT_EQ(stats.frames_out, 12u);
  EXPECT_GE(stats.batches, 3u);          // 12 frames / max_batch 4
  EXPECT_NEAR(stats.mean_batch, 4.0, 2.0);
  EXPECT_GT(stats.latency_p99_ms, 0.0);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);

  // Unknown and closed sessions are rejected gracefully.
  server.close_session(b);
  EXPECT_EQ(server.submit_frame(b, sequence_frames(6, 1)[0]),
            SubmitResult::kUnknownSession);
  EXPECT_TRUE(server.poll_results(b).empty());
  EXPECT_EQ(server.session_count(), 1u);
}

TEST(Serve, LatencyHistogramSubMicrosecondQuantiles) {
  fuse::serve::LatencyHistogram h;
  // All-fast histogram: every sample under the first bin edge (1 us).
  // Bin 0 spans [0, 1e-6), so quantiles must not report a 1 us floor.
  for (int i = 0; i < 100; ++i) h.record(2e-7);
  EXPECT_LT(h.p50(), 1e-6);
  EXPECT_LE(h.quantile(1.0), 2e-7 + 1e-12);
  h.reset();
  // Degenerate all-zero histogram reports zero, not half a bin.
  for (int i = 0; i < 8; ++i) h.record(0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
}

TEST(Serve, LatencyHistogramOverflowBinClampsToMax) {
  fuse::serve::LatencyHistogram h;
  h.record(0.5);
  h.record(250.0);  // beyond the 100 s top edge -> overflow bin
  EXPECT_NEAR(h.max(), 250.0, 1e-9);
  // The overflow bin has no upper edge of its own; quantiles interpolate
  // up to the observed max instead of inventing one.
  EXPECT_LE(h.quantile(1.0), 250.0 + 1e-9);
  EXPECT_GT(h.quantile(0.9), 100.0);
}

TEST(Serve, LatencyHistogramMergeAndMergeAfterReset) {
  fuse::serve::LatencyHistogram a, b;
  for (int i = 0; i < 50; ++i) a.record(1e-3);
  for (int i = 0; i < 50; ++i) b.record(0.1);
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_NEAR(a.max(), 0.1, 1e-9);
  EXPECT_NEAR(a.mean(), (50 * 1e-3 + 50 * 0.1) / 100.0, 1e-9);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.p99(), 0.0);
  a.merge(b);  // merging into a freshly reset histogram is a plain copy
  EXPECT_EQ(a.count(), 50u);
  EXPECT_NEAR(a.p50(), 0.1, 0.05);
  EXPECT_NEAR(a.max(), 0.1, 1e-9);
  EXPECT_NEAR(a.sum(), 50 * 0.1, 1e-9);
}

/// Finds a stage row by name in a ServeStats snapshot.
const fuse::serve::StageSnapshot& stage_row(const fuse::serve::ServeStats& s,
                                            const char* name) {
  for (const auto& st : s.stages)
    if (st.stage == name) return st;
  static const fuse::serve::StageSnapshot empty{};
  ADD_FAILURE() << "missing stage " << name;
  return empty;
}

TEST(Serve, StageTelemetryConsistentUnderThreadedStress) {
  auto& pl = world();
  ServeConfig cfg;
  cfg.max_batch = 16;
  cfg.session.queue_capacity = 128;
  cfg.session.results_capacity = 256;
  Server server(&pl.predictor(), &pl.model(), cfg);

  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kFrames = 60;
  std::vector<fuse::serve::SessionId> ids;
  std::vector<std::vector<PointCloud>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids.push_back(server.open_session());
    streams.push_back(sequence_frames(s, kFrames));
  }

  // A concurrent reader hammers stats() while the scheduler batches: every
  // snapshot must observe whole passes only — the per-frame stages agree
  // with each other and with the batch counters at all times.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      const auto s = server.stats();
      const auto& queue_wait = stage_row(s, "queue_wait");
      const auto& featurize = stage_row(s, "featurize");
      const auto& infer = stage_row(s, "infer");
      EXPECT_EQ(queue_wait.count, featurize.count);
      EXPECT_EQ(infer.count, s.batches);
      // Every featurized frame went through exactly one batch:
      // mean_batch * batches is the merged batched-frame counter.
      EXPECT_EQ(static_cast<std::uint64_t>(std::llround(
                    s.mean_batch * static_cast<double>(s.batches))),
                featurize.count);
    }
  });

  server.start();
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kSessions; ++s)
    producers.emplace_back([&, s] {
      for (std::size_t i = 0; i < kFrames; ++i)
        EXPECT_TRUE(accepted(server.submit_frame(ids[s], streams[s][i])));
    });
  for (auto& t : producers) t.join();
  server.stop();
  done = true;
  reader.join();

  for (const auto id : ids) EXPECT_FALSE(server.poll_results(id).empty());
  const auto stats = server.stats();
  EXPECT_TRUE(stats.detailed);
  EXPECT_EQ(stats.frames_out, kSessions * kFrames);
  EXPECT_EQ(stage_row(stats, "queue_wait").count, stats.frames_out);
  EXPECT_EQ(stage_row(stats, "featurize").count, stats.frames_out);
  EXPECT_EQ(stage_row(stats, "infer").count, stats.batches);
  EXPECT_EQ(stage_row(stats, "result_poll").count, stats.frames_out);
  EXPECT_EQ(stage_row(stats, "dsp_cube").count, 0u);  // point-cloud path
  EXPECT_GT(stage_row(stats, "infer").p99_ms, 0.0);
}

TEST(Serve, StatsIdleRecordsNoDetail) {
  auto& pl = world();
  ServeConfig cfg;
  cfg.detailed_stats = false;  // stats-idle: per-stage recording off
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto id = server.open_session();
  for (const auto& f : sequence_frames(2, 8)) server.submit_frame(id, f);
  server.drain();
  EXPECT_EQ(server.poll_results(id).size(), 8u);

  const auto stats = server.stats();
  EXPECT_FALSE(stats.detailed);
  EXPECT_EQ(stats.frames_out, 8u);
  // Zero-cost contract: no stage histogram gained a sample...
  for (const auto& st : stats.stages) EXPECT_EQ(st.count, 0u);
  // ...while the always-on counters and end-to-end histogram still work.
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.latency_p99_ms, 0.0);
}

TEST(Serve, StatsJsonCarriesSchema) {
  auto& pl = world();
  Server server(&pl.predictor(), &pl.model(), ServeConfig{});
  const auto id = server.open_session();
  for (const auto& f : sequence_frames(3, 6)) server.submit_frame(id, f);
  server.drain();
  server.poll_results(id);

  const auto json = server.stats_json();
  for (const char* key :
       {"\"sessions\"", "\"frames_in\"", "\"frames_out\"", "\"drops\"",
        "\"queue_rejected\"", "\"drop_rate\"", "\"queue_depth_hwm\"",
        "\"latency_ms\"", "\"p99\"", "\"stages\"", "\"queue_wait\"",
        "\"rehydrate\"", "\"per_session\"", "\"detailed\"",
        "\"clone_store\"", "\"evictions\"", "\"rehydrations\"",
        "\"resident_bytes\"",
        // PR 8 robustness schema: overload ladder, shed/admission counters
        // and the clone store's fault-recovery counters.
        "\"robustness\"", "\"admission_rejected\"", "\"deadline_shed\"",
        "\"non_finite_frames\"", "\"non_finite_labels\"",
        "\"quarantined_sessions\"", "\"shed_rate\"", "\"in_flight\"",
        "\"overload\"", "\"level_name\"", "\"transitions\"", "\"shed\"",
        "\"restore_skipped\"", "\"rehydrate_failures\"",
        "\"checkpoint_failures\"", "\"quarantined\"",
        // PR 9 sharding schema: shard count and the per-shard rows.
        "\"shards\"", "\"per_shard\"",
        // Live-migration schema: merged and per-shard move counters,
        // bounced submits, the per-shard backlog series and each
        // session's adaptation state.
        "\"migrations\"", "\"migration_failures\"",
        "\"migration_rejected\"", "\"migrations_in\"",
        "\"migrations_out\"", "\"queue_depth_series\"", "\"adapt_state\"",
        // The rest of the schema table in DESIGN.md section 7, so the
        // table and this list agree key for key.
        "\"frames_dropped\"", "\"queue_evicted\"", "\"results_evicted\"",
        "\"results_stale\"", "\"level\"", "\"shard\"",
        "\"overload_level\"", "\"overload_transitions\"",
        "\"latency_p99_ms\"", "\"batches\"", "\"mean_batch\"", "\"p50\"",
        "\"p95\"", "\"mean\"", "\"max\"", "\"stage\"", "\"count\"",
        "\"total_ms\"", "\"mean_ms\"", "\"p50_ms\"", "\"p95_ms\"",
        "\"p99_ms\"", "\"max_ms\"", "\"dsp_cube\"", "\"featurize\"",
        "\"infer\"", "\"adapt\"", "\"result_poll\"", "\"migrate\"",
        "\"enabled\"", "\"hits\"", "\"misses\"", "\"checkpoint_writes\"",
        "\"tracked\"", "\"resident\"", "\"disk_bytes\"", "\"id\"",
        "\"queue_depth\"", "\"adapt_rounds\"", "\"adapt_buffered\"",
        "\"last_adapt_loss\""})
    EXPECT_NE(json.find(key), std::string::npos) << "missing key " << key;
}

TEST(Serve, StatsJsonIsSyntacticallyValid) {
  auto& pl = world();
  ServeConfig cfg;
  cfg.overload.enabled = true;  // emit every block, including overload
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto a = server.open_session();
  const auto b = server.open_session();
  for (const auto& f : sequence_frames(3, 6)) {
    server.submit_frame(a, f);
    server.submit_frame(b, f);
  }
  server.drain();
  server.poll_results(a);

  const auto json = server.stats_json();
  const auto scan = fuse::test::scan_json(json);
  EXPECT_TRUE(scan.ok()) << "malformed JSON near offset " << scan.error
                         << ": ..."
                         << json.substr(scan.error > 40 ? scan.error - 40 : 0,
                                        80)
                         << "...";
}

// The value oracle for the export: every field of a hand-filled
// ServeStats gets a distinct number, and each key must carry exactly its
// own field's value (a key presence check cannot tell results_evicted
// from results_stale).  Every leaf of the document is accounted for.
TEST(Serve, StatsJsonValuesMatchTheirFields) {
  fuse::serve::ServeStats s;
  std::vector<std::pair<std::string, double>> numbers;
  double next = 0.0;
  // Integers count up; doubles and floats sit on exact binary fractions so
  // any fixed-point rendering of them reads back exactly.
  const auto integer = [&](const std::string& path, auto& field) {
    next += 1.0;
    field = static_cast<std::remove_reference_t<decltype(field)>>(next);
    numbers.emplace_back(path, next);
  };
  const auto real = [&](const std::string& path, auto& field) {
    next += 1.0;
    field = static_cast<std::remove_reference_t<decltype(field)>>(next + 0.25);
    numbers.emplace_back(path, next + 0.25);
  };

  integer("sessions", s.sessions);
  integer("frames_in", s.frames_in);
  integer("frames_out", s.frames_out);
  integer("frames_dropped", s.frames_dropped);
  integer("drops.queue_evicted", s.queue_evicted);
  integer("drops.queue_rejected", s.queue_rejected);
  integer("drops.results_evicted", s.results_evicted);
  integer("drops.results_stale", s.results_stale);
  real("drop_rate", s.drop_rate);
  integer("queue_depth_hwm", s.queue_depth_hwm);
  integer("robustness.admission_rejected", s.admission_rejected);
  integer("robustness.deadline_shed", s.deadline_shed);
  integer("robustness.non_finite_frames", s.non_finite_frames);
  integer("robustness.non_finite_labels", s.non_finite_labels);
  integer("robustness.quarantined_sessions", s.quarantined_sessions);
  integer("robustness.migrations", s.migrations);
  integer("robustness.migration_failures", s.migration_failures);
  integer("robustness.migration_rejected", s.migration_rejected);
  real("shed_rate", s.shed_rate);
  integer("in_flight", s.in_flight);
  integer("overload.level", s.overload_level);
  s.overload_level_name = "shed_deadline";
  integer("overload.transitions", s.overload_transitions);
  integer("shards", s.shards);
  s.per_shard.resize(2);
  for (std::size_t i = 0; i < s.per_shard.size(); ++i) {
    auto& sh = s.per_shard[i];
    const std::string p = "per_shard[" + std::to_string(i) + "].";
    integer(p + "shard", sh.shard);
    integer(p + "sessions", sh.sessions);
    integer(p + "frames_in", sh.frames_in);
    integer(p + "frames_out", sh.frames_out);
    integer(p + "in_flight", sh.in_flight);
    integer(p + "batches", sh.batches);
    integer(p + "overload_level", sh.overload_level);
    integer(p + "overload_transitions", sh.overload_transitions);
    real(p + "latency_p99_ms", sh.latency_p99_ms);
    integer(p + "migrations_in", sh.migrations_in);
    integer(p + "migrations_out", sh.migrations_out);
    integer(p + "migration_failures", sh.migration_failures);
    sh.queue_depth_series.resize(i + 2);
    for (std::size_t k = 0; k < sh.queue_depth_series.size(); ++k)
      integer(p + "queue_depth_series[" + std::to_string(k) + "]",
              sh.queue_depth_series[k]);
  }
  integer("batches", s.batches);
  real("mean_batch", s.mean_batch);
  real("latency_ms.p50", s.latency_p50_ms);
  real("latency_ms.p95", s.latency_p95_ms);
  real("latency_ms.p99", s.latency_p99_ms);
  real("latency_ms.mean", s.latency_mean_ms);
  real("latency_ms.max", s.latency_max_ms);
  s.detailed = true;
  s.stages.resize(2);
  for (std::size_t i = 0; i < s.stages.size(); ++i) {
    auto& st = s.stages[i];
    const std::string p = "stages[" + std::to_string(i) + "].";
    st.stage = i == 0 ? "queue_wait" : "infer";
    integer(p + "count", st.count);
    real(p + "total_ms", st.total_ms);
    real(p + "mean_ms", st.mean_ms);
    real(p + "p50_ms", st.p50_ms);
    real(p + "p95_ms", st.p95_ms);
    real(p + "p99_ms", st.p99_ms);
    real(p + "max_ms", st.max_ms);
  }
  auto& cs = s.clone_store;
  cs.enabled = true;
  integer("clone_store.hits", cs.hits);
  integer("clone_store.misses", cs.misses);
  integer("clone_store.evictions", cs.evictions);
  integer("clone_store.rehydrations", cs.rehydrations);
  integer("clone_store.checkpoint_writes", cs.checkpoint_writes);
  integer("clone_store.tracked", cs.tracked);
  integer("clone_store.resident", cs.resident);
  integer("clone_store.resident_bytes", cs.resident_bytes);
  integer("clone_store.disk_bytes", cs.disk_bytes);
  integer("clone_store.restore_skipped", cs.restore_skipped);
  integer("clone_store.rehydrate_failures", cs.rehydrate_failures);
  integer("clone_store.checkpoint_failures", cs.checkpoint_failures);
  s.per_session.resize(2);
  for (std::size_t i = 0; i < s.per_session.size(); ++i) {
    auto& ps = s.per_session[i];
    const std::string p = "per_session[" + std::to_string(i) + "].";
    integer(p + "id", ps.id);
    integer(p + "frames_in", ps.frames_in);
    integer(p + "frames_out", ps.frames_out);
    integer(p + "frames_dropped", ps.frames_dropped);
    integer(p + "queue_evicted", ps.queue_evicted);
    integer(p + "queue_rejected", ps.queue_rejected);
    integer(p + "results_evicted", ps.results_dropped);
    integer(p + "results_stale", ps.results_stale);
    integer(p + "queue_depth", ps.queue_depth);
    integer(p + "queue_depth_hwm", ps.queue_depth_hwm);
    integer(p + "admission_rejected", ps.admission_rejected);
    integer(p + "deadline_shed", ps.deadline_shed);
    integer(p + "non_finite_frames", ps.non_finite_frames);
    integer(p + "non_finite_labels", ps.non_finite_labels);
    integer(p + "migration_rejected", ps.migration_rejected);
    ps.quarantined = i == 1;
    ps.adapt_state = i == 0 ? AdaptState::kCollecting : AdaptState::kAdapted;
    integer(p + "adapt_rounds", ps.adapt_rounds);
    integer(p + "adapt_buffered", ps.adapt_buffered);
    real(p + "last_adapt_loss", ps.last_adapt_loss);
  }

  const std::map<std::string, std::string> tokens = {
      {"overload.level_name", "\"shed_deadline\""},
      {"detailed", "true"},
      {"stages[0].stage", "\"queue_wait\""},
      {"stages[1].stage", "\"infer\""},
      {"clone_store.enabled", "true"},
      {"per_session[0].quarantined", "false"},
      {"per_session[0].adapt_state", "\"collecting\""},
      {"per_session[1].quarantined", "true"},
      {"per_session[1].adapt_state", "\"adapted\""},
  };

  const auto json = fuse::serve::stats_to_json(s);
  const auto scan = fuse::test::scan_json(json);
  ASSERT_TRUE(scan.ok()) << "malformed JSON near offset " << scan.error;
  for (const auto& [path, expected] : numbers) {
    const auto it = scan.leaves.find(path);
    ASSERT_NE(it, scan.leaves.end()) << "missing " << path;
    EXPECT_EQ(std::strtod(it->second.c_str(), nullptr), expected) << path;
  }
  for (const auto& [path, expected] : tokens) {
    const auto it = scan.leaves.find(path);
    ASSERT_NE(it, scan.leaves.end()) << "missing " << path;
    EXPECT_EQ(it->second, expected) << path;
  }
  EXPECT_EQ(scan.leaves.size(), numbers.size() + tokens.size())
      << "the export carries a key this oracle does not know";
}

// --------------------------------------------------- raw-cube ingestion --

std::vector<fuse::radar::RadarCube> simulate_cubes(std::size_t count,
                                                   std::uint64_t seed) {
  const auto& rcfg = world().config().data.radar;
  fuse::util::Rng rng(seed);
  std::vector<fuse::radar::RadarCube> cubes;
  for (std::size_t i = 0; i < count; ++i) {
    fuse::radar::Scene scene;
    for (int k = 0; k < 12; ++k) {
      fuse::radar::Scatterer sc;
      sc.position = {rng.uniformf(-0.5f, 0.5f), rng.uniformf(1.5f, 2.5f),
                     rng.uniformf(-0.6f, 0.6f)};
      sc.velocity = {0.0f, rng.uniformf(-1.0f, 1.0f), 0.0f};
      sc.rcs = rng.uniformf(0.005f, 0.03f);
      scene.push_back(sc);
    }
    cubes.push_back(fuse::radar::simulate_frame(rcfg, scene, rng));
  }
  return cubes;
}

TEST(Serve, RawCubeIngestionMatchesPointCloudPath) {
  auto& pl = world();
  const auto cubes = simulate_cubes(5, 1234);

  // Reference: extract the point cloud with the same processor, then run
  // it through the ordinary point-cloud serving path.
  ServeConfig cfg;
  cfg.processor = &pl.processor();
  cfg.session.tracking = true;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto cube_session = server.open_session();
  const auto cloud_session = server.open_session();

  fuse::radar::FrameWorkspace ws;
  fuse::radar::ProcessedFrame frame;
  for (const auto& cube : cubes) {
    ASSERT_TRUE(accepted(server.submit_cube(cube_session, cube)));
    pl.processor().process(cube, ws, frame);
    ASSERT_TRUE(accepted(server.submit_frame(cloud_session, frame.cloud)));
  }
  server.drain();
  const auto via_cube = server.poll_results(cube_session);
  const auto via_cloud = server.poll_results(cloud_session);
  ASSERT_EQ(via_cube.size(), cubes.size());
  ASSERT_EQ(via_cloud.size(), cubes.size());
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    expect_pose_eq(via_cube[i].raw, via_cloud[i].raw);
    expect_pose_eq(via_cube[i].tracked, via_cloud[i].tracked);
  }
}

TEST(Serve, SubmitCubeRejectedWithoutProcessor) {
  auto& pl = world();
  Server server(&pl.predictor(), &pl.model(), ServeConfig{});
  const auto id = server.open_session();
  const auto cubes = simulate_cubes(1, 99);
  EXPECT_EQ(server.submit_cube(id, cubes[0]), SubmitResult::kNoProcessor);
  // The ordinary point-cloud path still works on the same session.
  EXPECT_EQ(server.submit_frame(id, sequence_frames(0, 1)[0]),
            SubmitResult::kAccepted);
  EXPECT_EQ(server.drain(), 1u);
}

TEST(Serve, MalformedCubeRefusedAtTheDoorWhileThreadedServerServes) {
  // A cube the DSP would reject is refused by submit_cube itself: nothing
  // is enqueued, so nothing can throw on a shard thread (where it would
  // end in std::terminate).  The running server keeps serving good cubes.
  auto& pl = world();
  const auto& rcfg = pl.config().data.radar;
  ServeConfig cfg;
  cfg.processor = &pl.processor();
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto id = server.open_session();
  server.start();
  const fuse::radar::RadarCube too_few_channels(
      rcfg.n_virtual() - 1, rcfg.chirps_per_frame, rcfg.samples_per_chirp);
  const fuse::radar::RadarCube too_many_samples(
      rcfg.n_virtual(), rcfg.chirps_per_frame, rcfg.samples_per_chirp + 1);
  EXPECT_EQ(server.submit_cube(id, too_few_channels),
            SubmitResult::kMalformedCube);
  EXPECT_EQ(server.submit_cube(id, too_many_samples),
            SubmitResult::kMalformedCube);
  EXPECT_FALSE(accepted(SubmitResult::kMalformedCube));
  EXPECT_STREQ(fuse::serve::submit_result_name(SubmitResult::kMalformedCube),
               "malformed_cube");

  const auto cubes = simulate_cubes(3, 4321);
  for (const auto& cube : cubes)
    ASSERT_TRUE(accepted(server.submit_cube(id, cube)));
  std::size_t got = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (got < cubes.size() && std::chrono::steady_clock::now() < deadline) {
    got += server.poll_results(id).size();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  EXPECT_EQ(got, cubes.size());
  const auto stats = server.stats();
  EXPECT_EQ(stats.frames_in, cubes.size());
  EXPECT_EQ(stats.in_flight, 0u);
}

// ------------------------------------------------ one execution model --

/// What a ProbeLayer saw: per forward, the thread that called it and the
/// threads that ran the chunks of the parallel_for inside it.
struct ThreadLog {
  std::mutex mu;
  std::vector<std::pair<std::thread::id, std::set<std::thread::id>>> calls;
};

/// Identity layer whose inference runs a parallel_for, as every real
/// kernel does, and logs which threads executed it.
class ProbeLayer : public fuse::nn::Module {
 public:
  explicit ProbeLayer(std::shared_ptr<ThreadLog> log) : log_(std::move(log)) {}
  fuse::nn::Tensor forward(const fuse::nn::Tensor& x) override { return x; }
  fuse::nn::Tensor backward(const fuse::nn::Tensor& dy) override {
    return dy;
  }
  std::vector<fuse::nn::Tensor*> params() override { return {}; }
  std::vector<fuse::nn::Tensor*> grads() override { return {}; }
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<ProbeLayer>(*this);
  }
  std::string arch_name() const override { return "thread_probe"; }

 protected:
  fuse::nn::Tensor do_infer(const fuse::nn::Tensor& x) const override {
    std::mutex mu;
    std::set<std::thread::id> ran;
    fuse::util::parallel_for(0, 64, [&](std::size_t, std::size_t) {
      std::lock_guard<std::mutex> lock(mu);
      ran.insert(std::this_thread::get_id());
    });
    std::lock_guard<std::mutex> lock(log_->mu);
    log_->calls.emplace_back(std::this_thread::get_id(), std::move(ran));
    return x;
  }

 private:
  std::shared_ptr<ThreadLog> log_;
};

/// The world model's children behind a ProbeLayer, so the probe runs in
/// the trunk and the world model's last layer stays the head.
fuse::nn::Sequential probed_model(const std::shared_ptr<ThreadLog>& log) {
  fuse::nn::Sequential model("probed");
  model.append(std::make_unique<ProbeLayer>(log));
  const auto& world_model =
      dynamic_cast<const fuse::nn::Sequential&>(world().model());
  for (std::size_t i = 0; i < world_model.size(); ++i)
    model.append(world_model.child(i).clone());
  return model;
}

TEST(Serve, SharedModelWithoutAHeadIsRejected) {
  // A user adapts the shared model's last child, so the server only takes
  // a Sequential whose last child has parameters.
  auto& pl = world();
  const auto log = std::make_shared<ThreadLog>();
  fuse::nn::Sequential probe_last("probe_last");
  probe_last.append(world().model().clone());
  probe_last.append(std::make_unique<ProbeLayer>(log));
  EXPECT_THROW(Server(&pl.predictor(), &probe_last), std::invalid_argument);
  const fuse::nn::Sequential empty("empty");
  EXPECT_THROW(Server(&pl.predictor(), &empty), std::invalid_argument);
  fuse::util::Rng rng(7);
  const fuse::nn::Linear bare(4, fuse::human::kNumCoords, rng);
  EXPECT_THROW(Server(&pl.predictor(), &bare), std::invalid_argument);
  const auto probed = probed_model(log);
  EXPECT_NO_THROW(Server(&pl.predictor(), &probed));
}

TEST(Serve, SyncPassRunsEveryKernelOnTheCallingThread) {
  auto& pl = world();
  const auto log = std::make_shared<ThreadLog>();
  const auto model = probed_model(log);
  ServeConfig cfg;
  cfg.num_shards = 2;
  Server server(&pl.predictor(), &model, cfg);
  const auto frames = sequence_frames(0, 4);
  for (int s = 0; s < 4; ++s) {
    const auto id = server.open_session();
    for (const auto& f : frames)
      ASSERT_TRUE(accepted(server.submit_frame(id, f)));
  }
  while (server.run_once() > 0) {
  }
  const auto self = std::this_thread::get_id();
  ASSERT_FALSE(log->calls.empty());
  for (const auto& [caller, ran] : log->calls) {
    EXPECT_EQ(caller, self);
    EXPECT_EQ(ran, std::set<std::thread::id>{self});
  }
}

TEST(Serve, ThreadedShardRunsEveryKernelOnItsOwnThread) {
  auto& pl = world();
  const auto log = std::make_shared<ThreadLog>();
  const auto model = probed_model(log);
  ServeConfig cfg;
  cfg.num_shards = 2;
  Server server(&pl.predictor(), &model, cfg);
  const auto frames = sequence_frames(1, 4);
  std::vector<fuse::serve::SessionId> ids;
  for (int s = 0; s < 4; ++s) ids.push_back(server.open_session());
  server.start();
  for (const auto id : ids)
    for (const auto& f : frames)
      ASSERT_TRUE(accepted(server.submit_frame(id, f)));
  server.stop();  // the shard threads drain their queues before exiting
  EXPECT_EQ(server.stats().frames_out, ids.size() * frames.size());

  const auto self = std::this_thread::get_id();
  std::set<std::thread::id> shard_threads;
  ASSERT_FALSE(log->calls.empty());
  for (const auto& [caller, ran] : log->calls) {
    EXPECT_NE(caller, self);
    EXPECT_EQ(ran, std::set<std::thread::id>{caller});
    shard_threads.insert(caller);
  }
  EXPECT_LE(shard_threads.size(), cfg.num_shards);
}

// -------------------------------------------------- sharded serving plane --

TEST(Shard, FourShardServerMatchesSingleShardExactly) {
  // The equivalence oracle: session ids are allocated identically on both
  // servers, so every session runs the same frames through the same
  // single-threaded scheduler maths — just on different shard threads —
  // and the fp32 outputs must be bit-identical.
  auto& pl = world();
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kFrames = 24;
  ServeConfig one;
  one.session.queue_capacity = 64;
  ServeConfig four = one;
  four.num_shards = 4;
  Server s1(&pl.predictor(), &pl.model(), one);
  Server s4(&pl.predictor(), &pl.model(), four);
  EXPECT_EQ(s1.num_shards(), 1u);
  EXPECT_EQ(s4.num_shards(), 4u);

  std::vector<fuse::serve::SessionId> ids;
  std::vector<std::vector<PointCloud>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto id1 = s1.open_session();
    ASSERT_EQ(s4.open_session(), id1);  // sequential allocation from 1
    ids.push_back(id1);
    streams.push_back(sequence_frames(s, kFrames));
  }
  for (std::size_t i = 0; i < kFrames; ++i)
    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_TRUE(accepted(s1.submit_frame(ids[s], streams[s][i])));
      ASSERT_TRUE(accepted(s4.submit_frame(ids[s], streams[s][i])));
    }
  EXPECT_EQ(s1.drain(), s4.drain());

  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto r1 = s1.poll_results(ids[s]);
    const auto r4 = s4.poll_results(ids[s]);
    ASSERT_EQ(r1.size(), kFrames);
    ASSERT_EQ(r4.size(), kFrames);
    for (std::size_t i = 0; i < kFrames; ++i) {
      EXPECT_EQ(r1[i].seq, r4[i].seq);
      expect_pose_eq(r4[i].raw, r1[i].raw);
      expect_pose_eq(r4[i].tracked, r1[i].tracked);
    }
  }

  // Merged stats span the shards and the per-shard rows partition them.
  const auto m = s4.stats();
  EXPECT_EQ(m.shards, 4u);
  ASSERT_EQ(m.per_shard.size(), 4u);
  std::size_t row_sessions = 0;
  std::uint64_t row_out = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(m.per_shard[k].shard, k);
    EXPECT_GT(m.per_shard[k].sessions, 0u);  // 6 sessions round-robin 4 ways
    row_sessions += m.per_shard[k].sessions;
    row_out += m.per_shard[k].frames_out;
  }
  EXPECT_EQ(row_sessions, kSessions);
  EXPECT_EQ(row_out, m.frames_out);
  EXPECT_EQ(m.frames_out, kSessions * kFrames);
}

TEST(Shard, HashIsStableAcrossCloseAndRecycle) {
  auto& pl = world();
  ServeConfig cfg;
  cfg.num_shards = 2;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto a = server.open_session();  // id 1 -> shard 0
  const auto b = server.open_session();  // id 2 -> shard 1
  const auto c = server.open_session();  // id 3 -> shard 0
  EXPECT_EQ(server.shard_of(a), 0u);
  EXPECT_EQ(server.shard_of(b), 1u);
  EXPECT_EQ(server.shard_of(c), 0u);

  // shard_of is a pure function of the id: recycling the session or
  // closing a neighbour must never remap anything.
  server.recycle_session(b);
  EXPECT_EQ(server.shard_of(b), 1u);
  server.close_session(a);
  EXPECT_EQ(server.shard_of(b), 1u);
  EXPECT_EQ(server.shard_of(c), 0u);
  // Ids keep counting up (never reused), continuing the round-robin.
  const auto d = server.open_session();  // id 4 -> shard 1
  EXPECT_GT(d, c);
  EXPECT_EQ(server.shard_of(d), 1u);

  // The recycled session still serves on its original shard: its frames
  // land in shard 1's row, not shard 0's.
  for (const auto& f : sequence_frames(1, 3))
    ASSERT_TRUE(accepted(server.submit_frame(b, f)));
  server.drain();
  EXPECT_EQ(server.poll_results(b).size(), 3u);
  EXPECT_EQ(server.stats().per_shard.at(1).frames_out, 3u);
  EXPECT_EQ(server.stats().per_shard.at(0).frames_out, 0u);
}

TEST(Shard, ThreadedChurnStormAcrossShards) {
  // Connect/disconnect storm: concurrent producers open, stream, recycle
  // and close sessions across every shard while the shard threads serve.
  auto& pl = world();
  ServeConfig cfg;
  cfg.num_shards = 4;
  cfg.max_sessions = 64;
  cfg.session.queue_capacity = 32;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto frames = sequence_frames(0, 8);

  server.start();
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kChurns = 10;
  std::atomic<std::size_t> polled{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t c = 0; c < kChurns; ++c) {
        const auto id = server.open_session();
        for (const auto& f : frames)
          EXPECT_TRUE(accepted(server.submit_frame(id, f)));
        polled.fetch_add(server.poll_results(id).size());
        if (c % 3 == 1) server.recycle_session(id);
        server.close_session(id);
        // A closed id stays closed even while its shard keeps serving.
        EXPECT_EQ(server.submit_frame(id, frames[0]),
                  SubmitResult::kUnknownSession);
      }
    });
  }
  for (auto& t : workers) t.join();
  server.stop();

  EXPECT_EQ(server.session_count(), 0u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.sessions, 0u);
  // Every closed session released its queued frames' admission slots.
  EXPECT_EQ(stats.in_flight, 0u);
  for (const auto& row : stats.per_shard) EXPECT_EQ(row.in_flight, 0u);
}

TEST(Shard, OverloadEngagesPerShardNotFleetWide) {
  // The gauge/detector contract: detection is per-shard, so a hot shard
  // climbs its ladder even when every neighbour is idle — and the idle
  // neighbour stays at full fidelity.
  auto& pl = world();
  ServeConfig cfg;
  cfg.num_shards = 2;
  cfg.max_batch = 4;
  cfg.session.queue_capacity = 64;
  cfg.overload.enabled = true;
  cfg.overload.queue_high_water = 8;
  cfg.overload.engage_passes = 1;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto hot = server.open_session();   // id 1 -> shard 0
  const auto cold = server.open_session();  // id 2 -> shard 1

  const auto frames = sequence_frames(0, 32);
  for (const auto& f : frames)
    ASSERT_TRUE(accepted(server.submit_frame(hot, f)));
  ASSERT_TRUE(accepted(server.submit_frame(cold, frames[0])));
  server.run_once();  // shard 0's backlog >> high water; shard 1 is clear

  EXPECT_GT(server.stats().per_shard.at(0).overload_level, 0);
  EXPECT_EQ(server.stats().per_shard.at(1).overload_level, 0);
  // The merged view surfaces the worst rung, not an average over shards.
  EXPECT_EQ(server.stats().overload_level,
            server.stats().per_shard.at(0).overload_level);
  EXPECT_GT(server.stats().overload_transitions, 0u);
  server.drain();
}

TEST(Shard, EscalatedShardStepsDownThroughIdlePasses) {
  // The detector is fed every pass, idle ones included: once the backlog
  // is served, passes with nothing to do are what walk the ladder back
  // down to full fidelity.
  auto& pl = world();
  ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.session.queue_capacity = 64;
  cfg.overload.enabled = true;
  cfg.overload.queue_high_water = 8;
  cfg.overload.engage_passes = 1;
  cfg.overload.release_passes = 8;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto id = server.open_session();
  for (const auto& f : sequence_frames(0, 32))
    ASSERT_TRUE(accepted(server.submit_frame(id, f)));
  server.drain();  // serves the backlog; too few clear passes to release
  ASSERT_GT(server.stats().overload_level, 0);

  // Full recovery from the top rung (kShedDeadline, two above normal).
  const std::size_t full_release =
      cfg.overload.release_passes + cfg.overload.release_step_passes;
  for (std::size_t i = 0; i < full_release; ++i)
    EXPECT_EQ(server.run_once(), 0u);  // nothing queued
  EXPECT_EQ(server.stats().overload_level, 0);
}

TEST(Shard, AdmissionBudgetIsGlobalAcrossShards) {
  // The other half of the contract: admission is GLOBAL, so the in-flight
  // budget bounds total server memory no matter how a burst hashes.
  auto& pl = world();
  ServeConfig cfg;
  cfg.num_shards = 2;
  cfg.max_in_flight = 4;
  cfg.session.queue_capacity = 64;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto a = server.open_session();  // shard 0
  const auto b = server.open_session();  // shard 1
  const auto frames = sequence_frames(0, 6);

  // Fill the whole budget from shard 0's session...
  for (std::size_t i = 0; i < 4; ++i)
    ASSERT_EQ(server.submit_frame(a, frames[i]), SubmitResult::kAccepted);
  // ...and shard 1 is refused at the door despite its empty queue.
  EXPECT_EQ(server.submit_frame(b, frames[4]),
            SubmitResult::kAdmissionRejected);
  EXPECT_EQ(server.stats().in_flight, 4u);

  // Serving releases the slots; the previously refused shard admits again.
  server.drain();
  EXPECT_EQ(server.stats().in_flight, 0u);
  EXPECT_EQ(server.submit_frame(b, frames[5]), SubmitResult::kAccepted);
  server.drain();
}

TEST(Shard, SubmitReportsQuarantineAsAcceptedVariant) {
  auto& pl = world();
  ServeConfig cfg;
  cfg.session.quarantine_after = 2;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto id = server.open_session();

  // Two NaN frames: accepted at the door (the scheduler's input guards,
  // not the producer, validate payloads) and rejected at collection time,
  // tripping the quarantine threshold.
  PointCloud bad = sequence_frames(0, 1)[0];
  ASSERT_FALSE(bad.points.empty());
  bad.points[0].y = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(server.submit_frame(id, bad), SubmitResult::kAccepted);
  EXPECT_EQ(server.submit_frame(id, bad), SubmitResult::kAccepted);
  server.drain();
  EXPECT_EQ(server.stats().non_finite_frames, 2u);
  EXPECT_EQ(server.stats().quarantined_sessions, 1u);

  // A quarantined session still serves (shared meta-init): the submit is
  // accepted, but the code surfaces the sensor problem to the producer.
  const auto good = sequence_frames(0, 1)[0];
  const auto r = server.submit_frame(id, good);
  EXPECT_EQ(r, SubmitResult::kQuarantined);
  EXPECT_TRUE(accepted(r));
  server.drain();
  EXPECT_EQ(server.poll_results(id).size(), 1u);
}

TEST(Shard, ConfigValidationNamesTheBadField) {
  auto& pl = world();
  const auto make = [&](const ServeConfig& cfg) {
    Server s(&pl.predictor(), &pl.model(), cfg);
  };
  ServeConfig bad;
  bad.num_shards = 0;
  EXPECT_THROW(make(bad), std::invalid_argument);
  bad = ServeConfig{};
  bad.num_shards = 8;
  bad.max_sessions = 4;  // more shards than sessions can never fill
  EXPECT_THROW(make(bad), std::invalid_argument);
  bad = ServeConfig{};
  bad.max_batch = 0;
  EXPECT_THROW(make(bad), std::invalid_argument);
  bad = ServeConfig{};
  bad.session.queue_capacity = 0;
  EXPECT_THROW(make(bad), std::invalid_argument);
  bad = ServeConfig{};
  bad.session.adapt.enabled = true;
  bad.session.adapt.min_samples = 8;
  bad.session.adapt.buffer_capacity = 4;  // buffer can never reach min
  EXPECT_THROW(make(bad), std::invalid_argument);
  // A disabled adapt block is not validated (the knobs are inert).
  ServeConfig ok_cfg;
  ok_cfg.session.adapt.enabled = false;
  ok_cfg.session.adapt.buffer_capacity = 0;
  make(ok_cfg);
  // Per-session overrides revalidate at open_session.
  Server ok(&pl.predictor(), &pl.model(), ServeConfig{});
  SessionConfig scfg;
  scfg.results_capacity = 0;
  EXPECT_THROW(ok.open_session(scfg), std::invalid_argument);
}

// -------------------------------------------- cross-shard migration --

TEST(Migrate, MovesBacklogAndServesIdenticallyToUnmigratedServer) {
  // Migrating a session mid-stream must be invisible in its outputs: the
  // drained backlog replays in order on the target shard, and since every
  // shard runs the same single-thread engine the fp32 results stay
  // bit-identical to a server that never migrated.
  auto& pl = world();
  ServeConfig cfg;
  cfg.num_shards = 2;
  cfg.session.queue_capacity = 64;
  Server moved(&pl.predictor(), &pl.model(), cfg);
  Server control(&pl.predictor(), &pl.model(), cfg);
  const auto id = moved.open_session();  // id 1 -> shard 0
  ASSERT_EQ(control.open_session(), id);
  const auto frames = sequence_frames(0, 24);

  // Half the stream, served on the home shard.
  for (std::size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(accepted(moved.submit_frame(id, frames[i])));
    ASSERT_TRUE(accepted(control.submit_frame(id, frames[i])));
  }
  moved.run_once();
  control.run_once();

  // Queue a backlog, then migrate with the frames still in flight.
  for (std::size_t i = 12; i < 20; ++i) {
    ASSERT_TRUE(accepted(moved.submit_frame(id, frames[i])));
    ASSERT_TRUE(accepted(control.submit_frame(id, frames[i])));
  }
  ASSERT_EQ(moved.shard_of(id), 0u);
  ASSERT_TRUE(moved.migrate_session(id, 1));
  EXPECT_EQ(moved.shard_of(id), 1u);
  moved.run_once();  // serves the replayed backlog on the target
  control.run_once();

  // Rest of the stream lands on the target shard.
  for (std::size_t i = 20; i < frames.size(); ++i) {
    ASSERT_TRUE(accepted(moved.submit_frame(id, frames[i])));
    ASSERT_TRUE(accepted(control.submit_frame(id, frames[i])));
  }
  moved.drain();
  control.drain();

  const auto got = moved.poll_results(id);
  const auto want = control.poll_results(id);
  ASSERT_EQ(got.size(), frames.size());
  ASSERT_EQ(want.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(got[i].seq, want[i].seq);
    expect_pose_eq(got[i].raw, want[i].raw);
    expect_pose_eq(got[i].tracked, want[i].tracked);
  }

  // The move shows up in the stats surface: source out, target in, one
  // completed migration in the merged robustness block, zero failures,
  // and the session's frames split across both shard rows.
  const auto stats = moved.stats();
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(stats.migration_failures, 0u);
  EXPECT_EQ(stats.per_shard.at(0).migrations_out, 1u);
  EXPECT_EQ(stats.per_shard.at(1).migrations_in, 1u);
  // Both shards did serving work (batches are counted where the pass
  // ran; session frame counters travel with the session to shard 1).
  EXPECT_GT(stats.per_shard.at(0).batches, 0u);
  EXPECT_GT(stats.per_shard.at(1).batches, 0u);
  EXPECT_EQ(stats.per_shard.at(0).sessions, 0u);
  EXPECT_EQ(stats.per_shard.at(1).frames_out, frames.size());
  EXPECT_EQ(stats.frames_out, frames.size());
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(Migrate, EverySubmitResultVariantReachableAroundMigration) {
  auto& pl = world();
  ServeConfig cfg;
  cfg.num_shards = 2;
  cfg.max_in_flight = 64;
  cfg.session.queue_capacity = 4;
  cfg.session.drop_policy = DropPolicy::kDropNewest;
  cfg.session.quarantine_after = 2;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto id = server.open_session();
  const auto frames = sequence_frames(0, 8);

  // kAccepted before any migration.
  ASSERT_EQ(server.submit_frame(id, frames[0]), SubmitResult::kAccepted);

  // kMigrating is the retry-after answer while a move is in progress; a
  // synchronous move commits before migrate_session returns, so only a
  // concurrent producer can observe it (ThreadedMigrationKeepsServing...
  // counts those).  After the call the session accepts on the target.
  EXPECT_FALSE(accepted(SubmitResult::kMigrating));
  EXPECT_STREQ(fuse::serve::submit_result_name(SubmitResult::kMigrating),
               "migrating");
  ASSERT_TRUE(server.migrate_session(id, 1));
  EXPECT_EQ(server.shard_of(id), 1u);
  EXPECT_EQ(server.submit_frame(id, frames[1]), SubmitResult::kAccepted);
  EXPECT_EQ(server.stats().migration_rejected, 0u);

  // kQueueFull on the migrated session (kDropNewest surfaces the drop).
  // The queue already holds frames[0], replayed on the target, and
  // frames[1].
  std::size_t queued = 2;
  while (server.submit_frame(id, frames[2]) == SubmitResult::kAccepted)
    ++queued;
  EXPECT_EQ(queued, cfg.session.queue_capacity);
  EXPECT_EQ(server.submit_frame(id, frames[2]), SubmitResult::kQueueFull);
  server.drain();

  // kNoProcessor: raw-cube ingestion without a radar processor, still
  // routed through the migrated placement.
  EXPECT_EQ(server.submit_cube(id, simulate_cubes(1, 7)[0]),
            SubmitResult::kNoProcessor);

  // kQuarantined after two NaN frames.
  PointCloud bad = frames[0];
  ASSERT_FALSE(bad.points.empty());
  bad.points[0].z = std::numeric_limits<float>::quiet_NaN();
  ASSERT_EQ(server.submit_frame(id, bad), SubmitResult::kAccepted);
  ASSERT_EQ(server.submit_frame(id, bad), SubmitResult::kAccepted);
  server.drain();
  EXPECT_EQ(server.submit_frame(id, frames[3]), SubmitResult::kQuarantined);
  server.drain();

  // kAdmissionRejected once the global budget is exhausted (second
  // session, so the quarantined one stays out of the way).
  const auto other = server.open_session();
  ServeConfig tight = cfg;
  tight.max_in_flight = 1;
  Server tight_server(&pl.predictor(), &pl.model(), tight);
  const auto t1 = tight_server.open_session();
  ASSERT_EQ(tight_server.submit_frame(t1, frames[0]),
            SubmitResult::kAccepted);
  EXPECT_EQ(tight_server.submit_frame(t1, frames[1]),
            SubmitResult::kAdmissionRejected);

  // kUnknownSession: a closed id, and migrate_session mirrors the same
  // contract by refusing unknown ids and out-of-range shards.
  server.close_session(other);
  EXPECT_EQ(server.submit_frame(other, frames[0]),
            SubmitResult::kUnknownSession);
  EXPECT_FALSE(server.migrate_session(other, 1));
  EXPECT_FALSE(server.migrate_session(id, 99));
  EXPECT_TRUE(server.migrate_session(id, server.shard_of(id)));  // no-op
}

TEST(Migrate, AdaptedClonePredictsBitExactlyAfterMigration) {
  // The clone travels through the delta codec (fp32 = bit-exact), so an
  // adapted session predicts identically on its new shard: same stream on
  // a never-migrated control server, exact float equality.
  auto& pl = world();
  ServeConfig cfg;
  cfg.num_shards = 2;
  cfg.session.adapt.enabled = true;
  cfg.session.adapt.min_samples = 8;
  cfg.session.adapt.round_every = 4;
  cfg.session.adapt.steps_per_round = 2;
  Server moved(&pl.predictor(), &pl.model(), cfg);
  Server control(&pl.predictor(), &pl.model(), cfg);
  const auto id = moved.open_session();
  ASSERT_EQ(control.open_session(), id);

  const auto& ds = world().dataset();
  const auto [start, len] = ds.sequences.at(5);
  ASSERT_GE(len, 10u);
  // Adapt on the home shard: 8 labeled frames trigger round 1.
  for (std::size_t i = 0; i < 8; ++i) {
    const auto& f = ds.frames[start + i];
    ASSERT_TRUE(accepted(moved.submit_frame(id, f.cloud, &f.label)));
    ASSERT_TRUE(accepted(control.submit_frame(id, f.cloud, &f.label)));
  }
  moved.drain();
  control.drain();
  ASSERT_EQ(moved.stats().per_session.at(0).adapt_state,
            AdaptState::kAdapted);

  ASSERT_TRUE(moved.migrate_session(id, 1));
  ASSERT_EQ(moved.shard_of(id), 1u);

  // Post-migration frames are served by the rehydrated clone.
  for (std::size_t i = 8; i < 10; ++i) {
    const auto& f = ds.frames[start + i];
    ASSERT_TRUE(accepted(moved.submit_frame(id, f.cloud)));
    ASSERT_TRUE(accepted(control.submit_frame(id, f.cloud)));
  }
  moved.drain();
  control.drain();
  const auto got = moved.poll_results(id);
  const auto want = control.poll_results(id);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].adapted_model, want[i].adapted_model);
    expect_pose_eq(got[i].raw, want[i].raw);
    expect_pose_eq(got[i].tracked, want[i].tracked);
  }
  EXPECT_TRUE(got.back().adapted_model);
  EXPECT_EQ(moved.stats().per_session.at(0).adapt_state,
            AdaptState::kAdapted);
}

TEST(Migrate, CloseDuringMigrationWins) {
  // A session closed while it is being moved must stay closed: the close
  // may not let the move's commit re-attach it on the target shard.  The
  // adapted clone's codec round-trip keeps the kMigrating window open long
  // enough for the closer, which fires on its first kMigrating, to land
  // inside it.
  auto& pl = world();
  ServeConfig cfg;
  cfg.num_shards = 2;
  cfg.session.adapt.enabled = true;
  cfg.session.adapt.min_samples = 8;
  cfg.session.adapt.round_every = 4;
  cfg.session.adapt.steps_per_round = 2;
  const auto& ds = world().dataset();
  const auto [start, len] = ds.sequences.at(5);
  ASSERT_GE(len, 8u);
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE(trial);
    Server server(&pl.predictor(), &pl.model(), cfg);
    const auto id = server.open_session();  // id 1 -> shard 0
    for (std::size_t i = 0; i < 8; ++i) {
      const auto& f = ds.frames[start + i];
      ASSERT_TRUE(accepted(server.submit_frame(id, f.cloud, &f.label)));
    }
    server.drain();
    ASSERT_EQ(server.stats().per_session.at(0).adapt_state,
              AdaptState::kAdapted);

    const PointCloud& cloud = ds.frames[start].cloud;
    std::atomic<bool> submitting{false};
    std::atomic<bool> move_returned{false};
    std::thread closer([&] {
      // Close on the first kMigrating, or after the move if it never
      // showed one (the close must win either way).
      while (server.submit_frame(id, cloud) != SubmitResult::kMigrating &&
             !move_returned.load())
        submitting.store(true);
      server.close_session(id);
    });
    while (!submitting.load()) std::this_thread::yield();
    (void)server.migrate_session(id, 1);
    move_returned.store(true);
    closer.join();

    EXPECT_EQ(server.session_count(), 0u);
    EXPECT_EQ(server.submit_frame(id, cloud), SubmitResult::kUnknownSession);
    EXPECT_EQ(server.stats().in_flight, 0u);
  }
}

TEST(Migrate, ThreadedMigrationKeepsServingAndConservesFrames) {
  // Live migration while shard threads serve: the move runs inline under
  // both pass locks; producers see kMigrating during the window and
  // every accepted frame still comes out exactly once.
  auto& pl = world();
  ServeConfig cfg;
  cfg.num_shards = 2;
  cfg.session.queue_capacity = 256;
  cfg.session.results_capacity = 4096;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto id = server.open_session();
  const auto frames = sequence_frames(0, 8);

  server.start();
  std::atomic<bool> done{false};
  std::atomic<std::size_t> accepted_count{0};
  std::atomic<std::size_t> migrating_count{0};
  std::thread producer([&] {
    std::size_t i = 0;
    while (!done.load()) {
      const auto r = server.submit_frame(id, frames[i % frames.size()]);
      if (r == SubmitResult::kAccepted) {
        ++accepted_count;
      } else {
        // kMigrating is the only other legal code here: retry-after.
        EXPECT_EQ(r, SubmitResult::kMigrating);
        ++migrating_count;
      }
      ++i;
      if (i % 16 == 0) std::this_thread::yield();
    }
  });
  for (std::size_t m = 0; m < 20; ++m) {
    EXPECT_TRUE(server.migrate_session(id, m % 2 == 0 ? 1 : 0));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true);
  producer.join();
  server.stop();
  server.drain();  // serve whatever was still queued at stop

  const std::size_t polled = server.poll_results(id).size();
  const auto stats = server.stats();
  // Frame-conservation ledger: every accepted frame is either served or
  // accounted as a kDropOldest eviction (the producer outruns the
  // scheduler by design); nothing leaks across the 20 moves.
  EXPECT_EQ(stats.frames_in, accepted_count.load());
  EXPECT_EQ(stats.frames_in, stats.frames_out + stats.queue_evicted);
  EXPECT_EQ(polled, stats.frames_out - stats.results_evicted);
  EXPECT_EQ(stats.in_flight, 0u);
  for (const auto& row : stats.per_shard) EXPECT_EQ(row.in_flight, 0u);
  EXPECT_EQ(stats.migrations + stats.migration_failures, 20u);
  EXPECT_EQ(stats.migration_failures, 0u);
  // Every bounced submit is counted once, against the session it hit.
  EXPECT_EQ(stats.migration_rejected, migrating_count.load());
}

TEST(Migrate, QueueDepthSeriesTracksPerShardBacklog) {
  auto& pl = world();
  ServeConfig cfg;
  cfg.num_shards = 2;
  cfg.max_batch = 2;
  cfg.session.queue_capacity = 64;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto id = server.open_session();  // shard 0
  server.open_session();                  // shard 1, idle
  const auto frames = sequence_frames(0, 8);
  for (const auto& f : frames)
    ASSERT_TRUE(accepted(server.submit_frame(id, f)));

  // Each tick serves one max_batch slice and samples the gauge after the
  // pass, so the series records the backlog draining monotonically.
  const std::size_t ticks = frames.size() / cfg.max_batch;
  for (std::size_t t = 0; t < ticks; ++t) server.run_once();
  const auto stats = server.stats();
  const auto& hot = stats.per_shard.at(0).queue_depth_series;
  const auto& idle = stats.per_shard.at(1).queue_depth_series;
  ASSERT_EQ(hot.size(), ticks);
  ASSERT_EQ(idle.size(), ticks);
  for (std::size_t t = 0; t + 1 < ticks; ++t) {
    EXPECT_GE(hot[t], hot[t + 1]);  // draining, never refilled
    EXPECT_EQ(idle[t], 0u);
  }
  EXPECT_EQ(hot.back(), 0u);
  // The series rides the JSON export for offline churn analysis.
  const auto json = fuse::serve::stats_to_json(stats);
  EXPECT_NE(json.find("\"queue_depth_series\""), std::string::npos);
}

}  // namespace
