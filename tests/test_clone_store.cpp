// Tests for the adapted-clone lifecycle: LRU eviction + transparent
// rehydration under a resident-clone count cap (capped serving must be
// bit-identical to uncapped), recycle/close cleanup, threaded eviction
// stress, warm restart, retired checkpoint formats, and the offline
// re-shard.  The head checkpoint format itself (Module::save_file) is
// tested in test_module.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "nn/registry.h"
#include "serve/clone_store/clone_store.h"
#include "serve/clone_store/layout.h"
#include "serve/reshard.h"
#include "serve/server.h"
#include "util/checksum.h"

namespace {

namespace fs = std::filesystem;

using fuse::human::Pose;
using fuse::radar::PointCloud;
using fuse::serve::AdaptState;
using fuse::serve::ServeConfig;
using fuse::serve::Server;
using fuse::serve::SessionConfig;
using fuse::serve::SubmitResult;

// ------------------------------------------------- serving integration --

/// Shared environment: a prepared (untrained) pipeline over a miniature
/// dataset, exactly like test_serve's world().
fuse::core::FusePipeline& world() {
  static fuse::core::FusePipeline* pipeline = [] {
    fuse::core::PipelineConfig cfg;
    cfg.data.frames_per_sequence = 40;
    cfg.fusion_m = 1;
    auto* p = new fuse::core::FusePipeline(cfg);
    p->prepare_data();
    return p;
  }();
  return *pipeline;
}

struct LabeledFrame {
  PointCloud cloud;
  Pose label;
};

/// Labeled frames of sequence `seq`, cycled to `count` entries.
std::vector<LabeledFrame> labeled_frames(std::size_t seq, std::size_t count) {
  const auto& ds = world().dataset();
  const auto [start, len] = ds.sequences.at(seq);
  std::vector<LabeledFrame> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& f = ds.frames[start + (i % len)];
    out.push_back({f.cloud, f.label});
  }
  return out;
}

void expect_pose_eq(const Pose& a, const Pose& b) {
  for (std::size_t j = 0; j < fuse::human::kNumJoints; ++j) {
    EXPECT_FLOAT_EQ(a.joints[j].x, b.joints[j].x);
    EXPECT_FLOAT_EQ(a.joints[j].y, b.joints[j].y);
    EXPECT_FLOAT_EQ(a.joints[j].z, b.joints[j].z);
  }
}

ServeConfig adapting_cfg() {
  ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.session.queue_capacity = 128;
  cfg.session.results_capacity = 512;
  cfg.session.adapt.enabled = true;
  cfg.session.adapt.min_samples = 8;
  cfg.session.adapt.round_every = 4;
  cfg.session.adapt.steps_per_round = 2;
  cfg.session.adapt.buffer_capacity = 16;
  return cfg;
}

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

TEST(CloneStore, BudgetConstrainedServingIsBitIdenticalFp32) {
  auto& pl = world();
  const std::string dir = fresh_dir("fuse_clone_budget");

  // Server A serves under a one-resident-clone budget; server B keeps
  // every clone resident (no store).  Same streams, same pass structure:
  // with bit-exact fp32 delta checkpoints, eviction + rehydration must be
  // invisible in every pose.
  ServeConfig cfg_a = adapting_cfg();
  cfg_a.clone_store.dir = dir;
  cfg_a.clone_store.max_resident_clones = 1;
  const ServeConfig cfg_b = adapting_cfg();
  Server server_a(&pl.predictor(), &pl.model(), cfg_a);
  Server server_b(&pl.predictor(), &pl.model(), cfg_b);

  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kFrames = 24;
  std::vector<fuse::serve::SessionId> ids_a, ids_b;
  std::vector<std::vector<LabeledFrame>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids_a.push_back(server_a.open_session());
    ids_b.push_back(server_b.open_session());
    streams.push_back(labeled_frames(s, kFrames));
  }

  // Frame-by-frame lockstep: one pass per submitted row, so adaptation
  // rounds, evictions and rehydrations interleave across many passes.
  for (std::size_t i = 0; i < kFrames; ++i) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_EQ(server_a.submit_frame(ids_a[s], streams[s][i].cloud,
                                      &streams[s][i].label),
                SubmitResult::kAccepted);
      ASSERT_EQ(server_b.submit_frame(ids_b[s], streams[s][i].cloud,
                                      &streams[s][i].label),
                SubmitResult::kAccepted);
    }
    server_a.drain();
    server_b.drain();
  }

  const auto stats_a = server_a.stats();
  const auto stats_b = server_b.stats();
  // The budget actually bit: clones were evicted and came back.
  EXPECT_TRUE(stats_a.clone_store.enabled);
  EXPECT_GT(stats_a.clone_store.evictions, 0u);
  EXPECT_GT(stats_a.clone_store.rehydrations, 0u);
  EXPECT_GT(stats_a.clone_store.checkpoint_writes, 0u);
  EXPECT_LE(stats_a.clone_store.resident, 1u);
  EXPECT_EQ(stats_a.clone_store.tracked, kSessions);
  EXPECT_GT(stats_a.clone_store.disk_bytes, 0u);
  EXPECT_FALSE(stats_b.clone_store.enabled);
  EXPECT_EQ(stats_b.clone_store.evictions, 0u);
  // Every session truly adapted on both servers.
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(stats_a.per_session[s].adapt_state, AdaptState::kAdapted);
    EXPECT_GT(stats_a.per_session[s].adapt_rounds, 1u);
    EXPECT_EQ(stats_a.per_session[s].adapt_rounds,
              stats_b.per_session[s].adapt_rounds);
  }

  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto ra = server_a.poll_results(ids_a[s]);
    const auto rb = server_b.poll_results(ids_b[s]);
    ASSERT_EQ(ra.size(), kFrames);
    ASSERT_EQ(rb.size(), kFrames);
    for (std::size_t i = 0; i < kFrames; ++i) {
      EXPECT_EQ(ra[i].adapted_model, rb[i].adapted_model)
          << "session " << s << " frame " << i;
      expect_pose_eq(ra[i].raw, rb[i].raw);
      expect_pose_eq(ra[i].tracked, rb[i].tracked);
    }
  }
  fs::remove_all(dir);
}

TEST(CloneStore, RecycleAndCloseDropCheckpoints) {
  auto& pl = world();
  const std::string dir = fresh_dir("fuse_clone_recycle");
  ServeConfig cfg = adapting_cfg();
  cfg.clone_store.dir = dir;
  cfg.clone_store.max_resident_clones = 1;
  Server server(&pl.predictor(), &pl.model(), cfg);

  const auto a = server.open_session();
  const auto b = server.open_session();
  const auto stream_a = labeled_frames(0, 16);
  const auto stream_b = labeled_frames(1, 16);
  for (std::size_t i = 0; i < 16; ++i) {
    server.submit_frame(a, stream_a[i].cloud, &stream_a[i].label);
    server.submit_frame(b, stream_b[i].cloud, &stream_b[i].label);
    server.drain();
  }
  auto stats = server.stats();
  ASSERT_EQ(stats.clone_store.tracked, 2u);
  // With a one-clone budget one of the two is on disk right now.
  const bool a_on_disk = fs::exists(dir + "/clone_" + std::to_string(a) +
                                    ".delta");
  const bool b_on_disk = fs::exists(dir + "/clone_" + std::to_string(b) +
                                    ".delta");
  EXPECT_TRUE(a_on_disk || b_on_disk);

  // Recycle A: the next subject must start from the shared model, and A's
  // checkpoint must be deleted (no cross-subject adaptation leakage).
  server.recycle_session(a);
  const auto fresh = labeled_frames(2, 1);
  server.submit_frame(a, fresh[0].cloud);
  server.drain();
  stats = server.stats();
  EXPECT_EQ(stats.clone_store.tracked, 1u);
  EXPECT_FALSE(fs::exists(dir + "/clone_" + std::to_string(a) + ".delta"));
  const auto results = server.poll_results(a);
  ASSERT_FALSE(results.empty());
  EXPECT_FALSE(results.back().adapted_model);

  // Close B: its checkpoint follows on the next pass.
  server.close_session(b);
  server.submit_frame(a, fresh[0].cloud);
  server.drain();
  stats = server.stats();
  EXPECT_EQ(stats.clone_store.tracked, 0u);
  EXPECT_EQ(stats.clone_store.disk_bytes, 0u);
  EXPECT_FALSE(fs::exists(dir + "/clone_" + std::to_string(b) + ".delta"));
  fs::remove_all(dir);
}

// Scheduler-side work queued from outside a pass must not wait for the
// next frame: one pass with nothing queued on any session still deletes a
// closed session's checkpoint...
TEST(CloneStore, IdlePassDeletesClosedSessionsCheckpoint) {
  auto& pl = world();
  const std::string dir = fresh_dir("fuse_clone_idle_close");
  ServeConfig cfg = adapting_cfg();
  cfg.clone_store.dir = dir;
  cfg.clone_store.max_resident_clones = 1;
  Server server(&pl.predictor(), &pl.model(), cfg);

  const auto a = server.open_session();
  const auto b = server.open_session();
  const auto stream_a = labeled_frames(0, 16);
  const auto stream_b = labeled_frames(1, 16);
  for (std::size_t i = 0; i < 16; ++i) {
    server.submit_frame(a, stream_a[i].cloud, &stream_a[i].label);
    server.submit_frame(b, stream_b[i].cloud, &stream_b[i].label);
    server.drain();
  }
  const auto path = [&](fuse::serve::SessionId id) {
    return dir + "/clone_" + std::to_string(id) + ".delta";
  };
  // With a one-clone budget one of the two is checkpointed on disk.
  const auto closed = fs::exists(path(a)) ? a : b;
  ASSERT_TRUE(fs::exists(path(closed)));

  server.close_session(closed);
  EXPECT_EQ(server.run_once(), 0u);  // nothing queued anywhere
  EXPECT_FALSE(fs::exists(path(closed)));
  EXPECT_EQ(server.stats().clone_store.tracked, 1u);
  fs::remove_all(dir);
}

// ...and consumes a recycle of an idle session, so a persist right after
// it leaves the previous subject's clone out of the manifest.
TEST(CloneStore, IdlePassConsumesRecycleBeforePersist) {
  auto& pl = world();
  const std::string dir = fresh_dir("fuse_clone_idle_recycle");
  ServeConfig cfg = adapting_cfg();
  cfg.clone_store.dir = dir;
  std::vector<fuse::serve::SessionId> ids;
  {
    Server server(&pl.predictor(), &pl.model(), cfg);
    ids = {server.open_session(), server.open_session()};
    const auto stream_a = labeled_frames(0, 12);
    const auto stream_b = labeled_frames(1, 12);
    for (std::size_t i = 0; i < 12; ++i) {
      server.submit_frame(ids[0], stream_a[i].cloud, &stream_a[i].label);
      server.submit_frame(ids[1], stream_b[i].cloud, &stream_b[i].label);
      server.drain();
    }
    ASSERT_EQ(server.stats().clone_store.tracked, 2u);

    server.recycle_session(ids[0]);    // idle: no frame queued
    EXPECT_EQ(server.run_once(), 0u);  // nothing queued anywhere
    EXPECT_EQ(server.stats().clone_store.tracked, 1u);
    server.persist_clones();
  }
  Server restarted(&pl.predictor(), &pl.model(), cfg);
  EXPECT_EQ(restarted.restore_clones(cfg.session),
            std::vector<fuse::serve::SessionId>{ids[1]});
  fs::remove_all(dir);
}

// A pass that fills its batch stops popping sessions, so it can leave a
// recycle unconsumed; the next pass, idle or not, must still consume it.
TEST(CloneStore, RecycleBehindAFullBatchIsConsumedByTheNextPass) {
  auto& pl = world();
  const std::string dir = fresh_dir("fuse_clone_full_batch_recycle");
  ServeConfig cfg = adapting_cfg();
  cfg.max_batch = 1;
  cfg.clone_store.dir = dir;
  std::vector<fuse::serve::SessionId> ids;
  {
    Server server(&pl.predictor(), &pl.model(), cfg);
    ids = {server.open_session(), server.open_session()};
    const auto stream_a = labeled_frames(0, 12);
    const auto stream_b = labeled_frames(1, 12);
    for (std::size_t i = 0; i < 12; ++i) {
      server.submit_frame(ids[0], stream_a[i].cloud, &stream_a[i].label);
      server.submit_frame(ids[1], stream_b[i].cloud, &stream_b[i].label);
      server.drain();
    }
    ASSERT_EQ(server.stats().clone_store.tracked, 2u);

    // The first session's frame fills the one-frame batch before the
    // pass reaches the recycled second session.
    server.submit_frame(ids[0], stream_a[0].cloud);
    server.recycle_session(ids[1]);
    EXPECT_EQ(server.run_once(), 1u);
    EXPECT_EQ(server.run_once(), 0u);  // nothing queued anywhere
    EXPECT_EQ(server.stats().clone_store.tracked, 1u);
    server.persist_clones();
  }
  Server restarted(&pl.predictor(), &pl.model(), cfg);
  EXPECT_EQ(restarted.restore_clones(cfg.session),
            std::vector<fuse::serve::SessionId>{ids[0]});
  fs::remove_all(dir);
}

TEST(CloneStore, ThreadedStressEvictsAndRehydratesSafely) {
  auto& pl = world();
  const std::string dir = fresh_dir("fuse_clone_stress");
  ServeConfig cfg = adapting_cfg();
  cfg.max_batch = 16;
  cfg.clone_store.dir = dir;
  cfg.clone_store.max_resident_clones = 1;
  Server server(&pl.predictor(), &pl.model(), cfg);

  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kFrames = 40;
  std::vector<fuse::serve::SessionId> ids;
  std::vector<std::vector<LabeledFrame>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids.push_back(server.open_session());
    streams.push_back(labeled_frames(s, kFrames));
  }
  // One extra session is closed mid-run (request_forget from a producer
  // thread) and one is recycled — both must be safe while the scheduler
  // thread evicts and rehydrates.
  const auto doomed = server.open_session();
  const auto doomed_stream = labeled_frames(4, 10);

  server.start();
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kSessions; ++s)
    producers.emplace_back([&, s] {
      for (std::size_t i = 0; i < kFrames; ++i)
        EXPECT_TRUE(fuse::serve::accepted(server.submit_frame(
            ids[s], streams[s][i].cloud, &streams[s][i].label)));
    });
  producers.emplace_back([&] {
    for (std::size_t i = 0; i < doomed_stream.size(); ++i)
      server.submit_frame(doomed, doomed_stream[i].cloud,
                          &doomed_stream[i].label);
    server.recycle_session(ids[0]);
    server.close_session(doomed);
  });
  for (auto& t : producers) t.join();
  server.stop();

  const auto stats = server.stats();
  // Budget invariants held through the stress: at most one clone resident,
  // closed session fully forgotten, counters self-consistent.
  EXPECT_LE(stats.clone_store.resident, 1u);
  EXPECT_LE(stats.clone_store.tracked, kSessions);
  EXPECT_GT(stats.clone_store.evictions, 0u);
  EXPECT_GT(stats.clone_store.rehydrations, 0u);
  EXPECT_EQ(stats.clone_store.misses, stats.clone_store.rehydrations);
  EXPECT_FALSE(
      fs::exists(dir + "/clone_" + std::to_string(doomed) + ".delta"));
  // Untouched sessions served every frame.
  for (std::size_t s = 1; s < kSessions; ++s) {
    const auto results = server.poll_results(ids[s]);
    EXPECT_EQ(results.size(), kFrames) << "session " << s;
  }
  fs::remove_all(dir);
}

TEST(CloneStore, WarmRestartServesRestoredClonesBitExactly) {
  auto& pl = world();
  const std::string dir = fresh_dir("fuse_clone_restart");
  ServeConfig cfg = adapting_cfg();
  cfg.clone_store.dir = dir;
  cfg.session.tracking = false;  // tracker state is NOT persisted

  constexpr std::size_t kSessions = 2;
  constexpr std::size_t kProbe = 5;
  std::vector<std::vector<LabeledFrame>> streams;
  for (std::size_t s = 0; s < kSessions; ++s)
    streams.push_back(labeled_frames(s, 12));
  const auto probe = labeled_frames(3, kProbe);

  std::vector<fuse::serve::SessionId> ids;
  std::vector<std::vector<fuse::serve::PoseResult>> ref(kSessions);
  auto server1 = std::make_unique<Server>(&pl.predictor(), &pl.model(), cfg);
  for (std::size_t s = 0; s < kSessions; ++s)
    ids.push_back(server1->open_session());
  for (std::size_t i = 0; i < streams[0].size(); ++i) {
    for (std::size_t s = 0; s < kSessions; ++s)
      server1->submit_frame(ids[s], streams[s][i].cloud,
                            &streams[s][i].label);
    server1->drain();
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(server1->stats().per_session[s].adapt_state,
              AdaptState::kAdapted);
    (void)server1->poll_results(ids[s]);
  }
  // Reference probe on the ORIGINAL server (unlabeled: no further
  // adaptation), then persist the full store and tear the server down.
  for (std::size_t i = 0; i < kProbe; ++i) {
    for (std::size_t s = 0; s < kSessions; ++s)
      server1->submit_frame(ids[s], probe[i].cloud);
    server1->drain();
  }
  for (std::size_t s = 0; s < kSessions; ++s)
    ref[s] = server1->poll_results(ids[s]);
  server1->persist_clones();
  EXPECT_TRUE(fs::exists(dir + "/clones.manifest"));
  server1.reset();

  // A fresh process: same store dir, same shared model.  Sessions come
  // back under their original ids; the first frame rehydrates each clone.
  Server server2(&pl.predictor(), &pl.model(), cfg);
  const auto restored = server2.restore_clones(cfg.session);
  ASSERT_EQ(restored.size(), kSessions);
  for (const auto id : ids)
    EXPECT_NE(std::find(restored.begin(), restored.end(), id),
              restored.end());
  // A new session must not collide with restored ids.
  const auto fresh_id = server2.open_session();
  for (const auto id : ids) EXPECT_NE(fresh_id, id);

  for (std::size_t i = 0; i < kProbe; ++i) {
    for (std::size_t s = 0; s < kSessions; ++s)
      server2.submit_frame(ids[s], probe[i].cloud);
    server2.drain();
  }
  const auto stats2 = server2.stats();
  EXPECT_GE(stats2.clone_store.rehydrations, kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto results = server2.poll_results(ids[s]);
    ASSERT_EQ(results.size(), kProbe);
    ASSERT_EQ(ref[s].size(), kProbe);
    for (std::size_t i = 0; i < kProbe; ++i)
      EXPECT_TRUE(results[i].adapted_model) << "session " << s;
    // The restored session's fusion window starts empty while the
    // original's still held pre-probe frames; with 3-frame windows
    // (fusion_m = 1) both contain exactly [p_{i-2}, p_{i-1}, p_i] from
    // probe index 2 on — where the fp32 restore must be bit-exact.
    for (std::size_t i = 2; i < kProbe; ++i)
      expect_pose_eq(results[i].raw, ref[s][i].raw);
  }
  // Restored sessions read as adapted in the per-session stats.
  for (std::size_t s = 0; s < stats2.per_session.size(); ++s) {
    if (stats2.per_session[s].id != fresh_id) {
      EXPECT_EQ(stats2.per_session[s].adapt_state, AdaptState::kAdapted);
    }
  }
  fs::remove_all(dir);
}

TEST(CloneStore, ShardedWarmRestartKeepsShardLayoutAndMapping) {
  auto& pl = world();
  const std::string dir = fresh_dir("fuse_clone_shards");
  ServeConfig cfg = adapting_cfg();
  cfg.num_shards = 2;
  cfg.clone_store.dir = dir;
  cfg.session.tracking = false;  // tracker state is NOT persisted

  constexpr std::size_t kSessions = 3;  // ids 1,2,3 -> shards 0,1,0
  constexpr std::size_t kProbe = 5;
  const auto probe = labeled_frames(3, kProbe);
  std::vector<fuse::serve::SessionId> ids;
  std::vector<std::vector<fuse::serve::PoseResult>> ref(kSessions);
  auto server1 = std::make_unique<Server>(&pl.predictor(), &pl.model(), cfg);
  std::vector<std::vector<LabeledFrame>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids.push_back(server1->open_session());
    streams.push_back(labeled_frames(s, 12));
  }
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t s = 0; s < kSessions; ++s)
      server1->submit_frame(ids[s], streams[s][i].cloud,
                            &streams[s][i].label);
    server1->drain();
  }
  for (std::size_t s = 0; s < kSessions; ++s)
    (void)server1->poll_results(ids[s]);
  for (std::size_t i = 0; i < kProbe; ++i) {
    for (std::size_t s = 0; s < kSessions; ++s)
      server1->submit_frame(ids[s], probe[i].cloud);
    server1->drain();
  }
  for (std::size_t s = 0; s < kSessions; ++s)
    ref[s] = server1->poll_results(ids[s]);
  server1->persist_clones();
  server1.reset();

  // Shards never share checkpoint files: each owns its own generation
  // under <dir>/shard_<k>, holding exactly its own sessions' clones.
  EXPECT_TRUE(fs::exists(dir + "/shard_0/clones.manifest"));
  EXPECT_TRUE(fs::exists(dir + "/shard_1/clones.manifest"));
  EXPECT_TRUE(fs::exists(dir + "/shard_0/clone_" + std::to_string(ids[0]) +
                         ".delta"));
  EXPECT_TRUE(fs::exists(dir + "/shard_1/clone_" + std::to_string(ids[1]) +
                         ".delta"));
  EXPECT_TRUE(fs::exists(dir + "/shard_0/clone_" + std::to_string(ids[2]) +
                         ".delta"));

  // Restart with the same num_shards: every session returns to its
  // original shard and serves its restored clone bit-exactly.
  Server server2(&pl.predictor(), &pl.model(), cfg);
  const auto restored = server2.restore_clones(cfg.session);
  ASSERT_EQ(restored.size(), kSessions);
  for (std::size_t i = 0; i < kProbe; ++i) {
    for (std::size_t s = 0; s < kSessions; ++s)
      server2.submit_frame(ids[s], probe[i].cloud);
    server2.drain();
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto results = server2.poll_results(ids[s]);
    ASSERT_EQ(results.size(), kProbe);
    for (std::size_t i = 0; i < kProbe; ++i)
      EXPECT_TRUE(results[i].adapted_model) << "session " << s;
    for (std::size_t i = 2; i < kProbe; ++i)  // window refill, as above
      expect_pose_eq(results[i].raw, ref[s][i].raw);
  }

  // A different num_shards is a data migration, not a restart: session 3
  // sits in shard_0's manifest but hashes to shard 2 of 3, so the restore
  // refuses loudly instead of serving it from the wrong shard's thread.
  ServeConfig resharded = cfg;
  resharded.num_shards = 3;
  Server server3(&pl.predictor(), &pl.model(), resharded);
  EXPECT_THROW(server3.restore_clones(resharded.session), std::logic_error);
  fs::remove_all(dir);
}

TEST(CloneStore, ColdStartRestoreIsEmptyAndBudgetlessStoreNeverEvicts) {
  auto& pl = world();
  const std::string dir = fresh_dir("fuse_clone_cold");
  ServeConfig cfg = adapting_cfg();
  cfg.clone_store.dir = dir;  // no caps: checkpoint-capable, no eviction
  Server server(&pl.predictor(), &pl.model(), cfg);
  EXPECT_TRUE(server.restore_clones(cfg.session).empty());

  const auto id = server.open_session();
  const auto stream = labeled_frames(0, 12);
  for (const auto& f : stream) server.submit_frame(id, f.cloud, &f.label);
  server.drain();
  const auto stats = server.stats();
  EXPECT_TRUE(stats.clone_store.enabled);
  EXPECT_EQ(stats.clone_store.tracked, 1u);
  EXPECT_EQ(stats.clone_store.resident, 1u);
  EXPECT_EQ(stats.clone_store.evictions, 0u);
  // A resident clone is the shared head's params + grads.
  EXPECT_EQ(stats.clone_store.resident_bytes,
            fuse::serve::shared_head(pl.model()).num_params() * 2 *
                sizeof(float));
  fs::remove_all(dir);
}

/// A FUSEDLT1 stream of `head` as the retired delta codec wrote it: dense
/// raw entries behind a valid length + checksum, so only the format
/// itself can refuse it.
std::string fusedlt1_stream(const fuse::nn::Module& head) {
  const auto put_u64 = [](std::string& out, std::uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  std::string payload;
  const auto ps = head.params();
  put_u64(payload, ps.size());
  for (const fuse::tensor::Tensor* p : ps) {
    payload.push_back('\x01');  // dense fp32 entry
    put_u64(payload, p->numel());
    payload.append(reinterpret_cast<const char*>(p->data()),
                   p->numel() * sizeof(float));
  }
  std::string stream("FUSEDLT1", 8);
  put_u64(stream, head.arch_name().size());
  stream += head.arch_name();
  put_u64(stream, payload.size());
  put_u64(stream, fuse::util::fnv1a(payload.data(), payload.size()));
  return stream + payload;
}

TEST(CloneStore, RetiredCheckpointFormatsAreSkippedNotMisloaded) {
  // Older binaries left two other formats under clone_<id>.delta: a
  // FUSEDLT1 delta of the head, and a full-model FUSEMOD2 file from when a
  // clone was the whole network.  Restore skips, counts and deletes both,
  // never loading either into a head.  The offline re-shard runs without
  // a model, so it checks format and checksum only: it skips the FUSEDLT1
  // file and moves the full-model one.
  auto& pl = world();
  const auto& head = fuse::serve::shared_head(pl.model());
  const std::string dir = fresh_dir("fuse_clone_retired_formats");
  const auto write_fixture = [&] {
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::ofstream(fuse::serve::layout::clone_path(dir, 1), std::ios::binary)
        << fusedlt1_stream(head);
    pl.model().save_file(fuse::serve::layout::clone_path(dir, 2));
    fuse::serve::layout::write_manifest(dir, {1, 2});
  };
  write_fixture();
  ServeConfig cfg = adapting_cfg();
  cfg.clone_store.dir = dir;
  {
    Server server(&pl.predictor(), &pl.model(), cfg);
    EXPECT_TRUE(server.restore_clones(cfg.session).empty());
    EXPECT_EQ(server.stats().clone_store.restore_skipped, 2u);
  }
  EXPECT_FALSE(fs::exists(fuse::serve::layout::clone_path(dir, 1)));
  EXPECT_FALSE(fs::exists(fuse::serve::layout::clone_path(dir, 2)));

  write_fixture();
  fuse::serve::ReshardConfig rcfg;
  rcfg.dir = dir;
  rcfg.to = 2;
  ASSERT_EQ(rcfg.base, nullptr);
  const auto report = fuse::serve::reshard(rcfg);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(report.clones_moved + report.clones_kept, 1u);
  fs::remove_all(dir);
}

// --------------------------------------------------- offline re-shard ----

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Adapts `sessions` sessions on a store-backed server, records a probe
/// reference per session, persists the store, and returns the refs.
std::vector<std::vector<fuse::serve::PoseResult>> adapt_and_persist(
    const ServeConfig& cfg, std::size_t sessions,
    const std::vector<LabeledFrame>& probe,
    std::vector<fuse::serve::SessionId>* ids) {
  auto& pl = world();
  Server server(&pl.predictor(), &pl.model(), cfg);
  std::vector<std::vector<LabeledFrame>> streams;
  for (std::size_t s = 0; s < sessions; ++s) {
    ids->push_back(server.open_session());
    streams.push_back(labeled_frames(s, 12));
  }
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t s = 0; s < sessions; ++s)
      server.submit_frame((*ids)[s], streams[s][i].cloud,
                          &streams[s][i].label);
    server.drain();
  }
  for (std::size_t s = 0; s < sessions; ++s)
    (void)server.poll_results((*ids)[s]);
  std::vector<std::vector<fuse::serve::PoseResult>> ref(sessions);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    for (std::size_t s = 0; s < sessions; ++s)
      server.submit_frame((*ids)[s], probe[i].cloud);
    server.drain();
  }
  for (std::size_t s = 0; s < sessions; ++s)
    ref[s] = server.poll_results((*ids)[s]);
  server.persist_clones();
  return ref;
}

/// Restores `cfg`'s store, replays the probe, and asserts every session
/// serves its adapted clone bit-exactly against `ref` (from probe index
/// 2 on — the 3-frame fusion window refills first, as in the warm
/// restart tests above).
void expect_restore_bit_exact(
    const ServeConfig& cfg, const std::vector<fuse::serve::SessionId>& ids,
    const std::vector<LabeledFrame>& probe,
    const std::vector<std::vector<fuse::serve::PoseResult>>& ref) {
  auto& pl = world();
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto restored = server.restore_clones(cfg.session);
  ASSERT_EQ(restored.size(), ids.size());
  for (std::size_t i = 0; i < probe.size(); ++i) {
    for (const auto id : ids) server.submit_frame(id, probe[i].cloud);
    server.drain();
  }
  for (std::size_t s = 0; s < ids.size(); ++s) {
    const auto results = server.poll_results(ids[s]);
    ASSERT_EQ(results.size(), probe.size());
    for (std::size_t i = 0; i < probe.size(); ++i)
      EXPECT_TRUE(results[i].adapted_model) << "session " << s;
    for (std::size_t i = 2; i < probe.size(); ++i)
      expect_pose_eq(results[i].raw, ref[s][i].raw);
  }
}

TEST(Reshard, FourToTwoToFourRoundTripIsBitIdentical) {
  // The acceptance path: a 4-shard store re-sharded to 2 must serve
  // bit-identical fp32 results after restore, and re-sharding back to 4
  // must reproduce the original checkpoint files bit-for-bit.
  auto& pl = world();
  const std::string dir = fresh_dir("fuse_reshard_42");
  ServeConfig cfg = adapting_cfg();
  cfg.num_shards = 4;
  cfg.clone_store.dir = dir;
  cfg.session.tracking = false;

  constexpr std::size_t kSessions = 5;  // ids 1..5 -> shards 0,1,2,3,0
  const auto probe = labeled_frames(3, 5);
  std::vector<fuse::serve::SessionId> ids;
  const auto ref = adapt_and_persist(cfg, kSessions, probe, &ids);

  // Snapshot every checkpoint's bytes in the original 4-shard layout.
  std::vector<std::string> original(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::size_t home = ids[s] == 0 ? 0 : (ids[s] - 1) % 4;
    original[s] = slurp(fs::path(dir) / ("shard_" + std::to_string(home)) /
                        ("clone_" + std::to_string(ids[s]) + ".delta"));
    ASSERT_FALSE(original[s].empty());
  }

  // Without the migration, a 2-shard server refuses the 4-shard store.
  ServeConfig two = cfg;
  two.num_shards = 2;
  {
    Server refuse(&pl.predictor(), &pl.model(), two);
    EXPECT_THROW(refuse.restore_clones(two.session), std::logic_error);
  }

  // 4 -> 2: ids 3 and 4 move to their new homes, 1/2/5 stay put.
  fuse::serve::ReshardConfig rcfg;
  rcfg.dir = dir;
  rcfg.to = 2;
  rcfg.base = &fuse::serve::shared_head(pl.model());
  const auto report = fuse::serve::reshard(rcfg);
  EXPECT_EQ(report.from, 4u);
  EXPECT_EQ(report.to, 2u);
  EXPECT_EQ(report.clones_moved, 2u);
  EXPECT_EQ(report.clones_kept, 3u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_FALSE(report.resumed);
  EXPECT_FALSE(fs::exists(dir + "/shard_2"));
  EXPECT_FALSE(fs::exists(dir + "/shard_3"));
  EXPECT_FALSE(fs::exists(dir + "/reshard.journal"));
  EXPECT_TRUE(fs::exists(dir + "/shard_map"));

  expect_restore_bit_exact(two, ids, probe, ref);

  // 2 -> 4: back to the original topology; every checkpoint lands on its
  // old shard with its exact original bytes (copies, never re-encoded).
  rcfg.to = 4;
  const auto back = fuse::serve::reshard(rcfg);
  EXPECT_EQ(back.from, 2u);
  EXPECT_EQ(back.to, 4u);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::size_t home = ids[s] == 0 ? 0 : (ids[s] - 1) % 4;
    EXPECT_EQ(slurp(fs::path(dir) / ("shard_" + std::to_string(home)) /
                    ("clone_" + std::to_string(ids[s]) + ".delta")),
              original[s])
        << "session " << ids[s] << " bytes changed across the round trip";
  }
  expect_restore_bit_exact(cfg, ids, probe, ref);
  fs::remove_all(dir);
}

TEST(Reshard, FlatAndMigratedPlacementTransitions) {
  // Flat (1-shard) <-> sharded transitions, plus a live-migrated
  // placement surviving persist / restore / re-shard.
  auto& pl = world();
  const std::string dir = fresh_dir("fuse_reshard_flat");
  ServeConfig cfg = adapting_cfg();
  cfg.clone_store.dir = dir;
  cfg.session.tracking = false;

  constexpr std::size_t kSessions = 2;  // ids 1,2
  const auto probe = labeled_frames(3, 5);
  std::vector<fuse::serve::SessionId> ids;
  const auto ref = adapt_and_persist(cfg, kSessions, probe, &ids);
  ASSERT_TRUE(fs::exists(dir + "/clones.manifest"));

  // A 2-shard server refuses the flat store...
  ServeConfig two = cfg;
  two.num_shards = 2;
  {
    Server refuse(&pl.predictor(), &pl.model(), two);
    EXPECT_THROW(refuse.restore_clones(two.session), std::logic_error);
  }
  // ...until reshard rewrites it (source count autodetected as 1).
  fuse::serve::ReshardConfig rcfg;
  rcfg.dir = dir;
  rcfg.to = 2;
  const auto up = fuse::serve::reshard(rcfg);
  EXPECT_EQ(up.from, 1u);
  EXPECT_EQ(up.clones_moved, kSessions);  // flat files always move
  EXPECT_FALSE(fs::exists(dir + "/clones.manifest"));
  expect_restore_bit_exact(two, ids, probe, ref);

  // Live-migrate session 1 off its home shard and persist: the shard_map
  // pins the placement, and a warm restart honours it.
  {
    Server server(&pl.predictor(), &pl.model(), two);
    ASSERT_EQ(server.restore_clones(two.session).size(), kSessions);
    ASSERT_EQ(server.shard_of(ids[0]), 0u);
    // Touch the clone so it is resident, then move it across shards.
    server.submit_frame(ids[0], probe[0].cloud);
    server.drain();
    ASSERT_TRUE(server.migrate_session(ids[0], 1));
    server.run_once();
    ASSERT_EQ(server.shard_of(ids[0]), 1u);
    (void)server.poll_results(ids[0]);
    server.persist_clones();
  }
  EXPECT_TRUE(
      fs::exists(dir + "/shard_1/clone_" + std::to_string(ids[0]) +
                 ".delta"));
  {
    Server server(&pl.predictor(), &pl.model(), two);
    const auto restored = server.restore_clones(two.session);
    ASSERT_EQ(restored.size(), kSessions);
    EXPECT_EQ(server.shard_of(ids[0]), 1u);  // pinned by the map
    EXPECT_EQ(server.shard_of(ids[1]), 1u);  // its home
  }

  // Re-shard back to flat: the pinned placement folds away (1 shard has
  // no map) and the store serves bit-exactly as a plain 1-shard restore.
  rcfg.to = 1;
  const auto down = fuse::serve::reshard(rcfg);
  EXPECT_EQ(down.from, 2u);
  EXPECT_FALSE(fs::exists(dir + "/shard_0"));
  EXPECT_FALSE(fs::exists(dir + "/shard_1"));
  EXPECT_FALSE(fs::exists(dir + "/shard_map"));
  expect_restore_bit_exact(cfg, ids, probe, ref);
  fs::remove_all(dir);
}

TEST(Reshard, StrayFileIsNotStoreDataForServerOrReshard) {
  // The server's layout check and reshard's source autodetection must
  // agree on what a checkpoint is.  A file that only looks like one
  // (no numeric id) in a shard dir beyond the layout is not store data:
  // the server restores, and reshard does not count that dir either.
  const std::string dir = fresh_dir("fuse_reshard_stray");
  ServeConfig cfg = adapting_cfg();
  cfg.num_shards = 2;
  cfg.clone_store.dir = dir;
  cfg.session.tracking = false;

  const auto probe = labeled_frames(3, 5);
  std::vector<fuse::serve::SessionId> ids;
  const auto ref = adapt_and_persist(cfg, 2, probe, &ids);
  fs::create_directories(dir + "/shard_2");
  std::ofstream(dir + "/shard_2/clone_x.delta") << "not a checkpoint";

  expect_restore_bit_exact(cfg, ids, probe, ref);
  fuse::serve::ReshardConfig rcfg;
  rcfg.dir = dir;
  rcfg.to = 1;
  const auto report = fuse::serve::reshard(rcfg);
  EXPECT_EQ(report.from, 2u);
  EXPECT_EQ(report.clones_moved, 2u);
  fs::remove_all(dir);
}

TEST(Reshard, TornShardMapPrefixesRestoreWhereCheckpointsLive) {
  // A shard map torn anywhere, even on a boundary where every surviving
  // token still parses, must read as torn: the checkpoints on disk then
  // decide placement.  Read as complete, the prefix would lose the
  // migrated session's pin and the restore would refuse the store.
  auto& pl = world();
  const std::string dir = fresh_dir("fuse_reshard_torn_map");
  ServeConfig cfg = adapting_cfg();
  cfg.num_shards = 2;
  cfg.clone_store.dir = dir;
  cfg.session.tracking = false;

  const auto probe = labeled_frames(3, 5);
  std::vector<fuse::serve::SessionId> ids;
  const auto ref = adapt_and_persist(cfg, 2, probe, &ids);  // ids 1, 2
  {
    // Migrate session 1 off its home shard 0 and persist the pin.
    Server server(&pl.predictor(), &pl.model(), cfg);
    ASSERT_EQ(server.restore_clones(cfg.session).size(), 2u);
    server.submit_frame(ids[0], probe[0].cloud);
    server.drain();
    ASSERT_TRUE(server.migrate_session(ids[0], 1));
    (void)server.poll_results(ids[0]);
    server.persist_clones();
  }
  const std::string id = std::to_string(ids[0]);
  const std::string head = "FUSESHMAP1\nshards 2";
  for (const std::string& prefix :
       {head, head + "\n" + id, head + "\n" + id + " "}) {
    SCOPED_TRACE("shard_map prefix \"" + prefix + "\"");
    std::ofstream(dir + "/shard_map", std::ios::binary | std::ios::trunc)
        << prefix;
    Server server(&pl.predictor(), &pl.model(), cfg);
    std::vector<fuse::serve::SessionId> restored;
    ASSERT_NO_THROW(restored = server.restore_clones(cfg.session));
    ASSERT_EQ(restored.size(), 2u);
    EXPECT_EQ(server.shard_of(ids[0]), 1u);  // where its checkpoint lives
    EXPECT_EQ(server.shard_of(ids[1]), 1u);  // its home
    for (std::size_t i = 0; i < probe.size(); ++i) {
      for (const auto sid : ids) server.submit_frame(sid, probe[i].cloud);
      server.drain();
    }
    for (std::size_t s = 0; s < ids.size(); ++s) {
      const auto results = server.poll_results(ids[s]);
      ASSERT_EQ(results.size(), probe.size());
      for (std::size_t i = 2; i < probe.size(); ++i)
        expect_pose_eq(results[i].raw, ref[s][i].raw);
    }
  }
  fs::remove_all(dir);
}

}  // namespace
