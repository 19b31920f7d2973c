// Chaos suite for the overload-hardened serving plane: multi-seed fault-
// matrix soak on the threaded server, crash-consistent clone persistence
// (mid-checkpoint kill, torn writes, deleted/truncated checkpoints, crashes
// during a migration or a persist),
// NaN/Inf input guards with session quarantine, global admission control,
// and the graceful-degradation ladder end to end.
//
// Everything here is deterministic: faults come from the seed-driven layer
// in util/fault.h, overload is driven in synchronous mode by real queue
// depths (tick_high_s = 0 — no wall-clock dependence), and "crashes" are
// injected torn writes / truncations rather than real kills.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "serve/server.h"
#include "util/fault.h"

namespace {

namespace fs = std::filesystem;

using fuse::human::Pose;
using fuse::radar::PointCloud;
using fuse::serve::AdaptState;
using fuse::serve::ServeConfig;
using fuse::serve::Server;
using fuse::serve::SessionConfig;
using fuse::serve::SubmitResult;
using fuse::util::FaultConfig;
using fuse::util::FaultPoint;
using fuse::util::ScopedFaults;

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

PointCloud nan_cloud(PointCloud cloud) {
  if (cloud.points.empty()) cloud.points.emplace_back();
  cloud.points[0].y = std::numeric_limits<float>::quiet_NaN();
  return cloud;
}

// ------------------------------------------------- multi-seed fault soak --

// The full fault matrix against the threaded server: corrupt inputs, disk
// I/O failures on every checkpoint path, torn writes and latency spikes at
// once, across seeds.  The server must neither crash, deadlock (suite
// timeout) nor leak (the CI ASan leg runs this test), and the frame
// accounting must balance exactly: every accepted frame is served, shed or
// rejected as non-finite — never silently lost.
TEST(Chaos, ThreadedSoakSurvivesFaultMatrixAcrossSeeds) {
  auto& pl = world();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultConfig fc;
    fc.seed = seed;
    fc.p(FaultPoint::kCorruptCloud) = 0.05;
    fc.p(FaultPoint::kCorruptLabel) = 0.05;
    fc.p(FaultPoint::kDiskWrite) = 0.10;
    fc.p(FaultPoint::kTornWrite) = 0.05;
    fc.p(FaultPoint::kDiskRead) = 0.05;
    fc.p(FaultPoint::kLatencySpike) = 0.05;
    fc.p(FaultPoint::kMigrationKill) = 0.10;  // some migrations die mid-move
    fc.p(FaultPoint::kTargetShardCrash) = 0.10;
    fc.p(FaultPoint::kMigrationOom) = 0.10;  // the move throws std::bad_alloc
    fc.spike_ms = 0.5;
    ScopedFaults faults(fc);

    const std::string dir = fresh_dir("fuse_chaos_soak");
    ServeConfig cfg = adapting_cfg();
    cfg.num_shards = 2;  // cross-shard migrations join the storm
    cfg.max_in_flight = 32;  // admission control live during the soak
    cfg.clone_store.dir = dir;
    cfg.clone_store.max_resident_clones = 1;  // evictions exercise disk I/O
    Server server(&pl.predictor(), &pl.model(), cfg);

    constexpr std::size_t kSessions = 3;
    constexpr std::size_t kFrames = 30;
    std::vector<fuse::serve::SessionId> ids;
    std::vector<std::vector<LabeledFrame>> streams;
    for (std::size_t s = 0; s < kSessions; ++s) {
      ids.push_back(server.open_session());
      streams.push_back(labeled_frames(s, kFrames));
    }

    server.start();
    std::vector<std::thread> producers;
    for (std::size_t s = 0; s < kSessions; ++s)
      producers.emplace_back([&, s] {
        for (std::size_t i = 0; i < kFrames; ++i)
          // false = admission-rejected; the producer simply moves on, as a
          // real sensor feed would.
          (void)server.submit_frame(ids[s], streams[s][i].cloud,
                                    &streams[s][i].label);
      });
    // A migration storm rides the fault matrix: every session ping-pongs
    // between the shards while the producers flood it, with kMigrationKill,
    // kTargetShardCrash and kMigrationOom randomly aborting moves
    // mid-flight.
    std::thread migrator([&] {
      for (std::size_t round = 0; round < 40; ++round)
        for (std::size_t s = 0; s < kSessions; ++s)
          (void)server.migrate_session(ids[s], round % 2);
    });
    for (auto& t : producers) t.join();
    migrator.join();
    server.stop();
    server.drain();  // flush whatever was still queued at stop()

    const auto stats = server.stats();
    // Conservation: accepted = served + rejected-as-non-finite (+ queue
    // evictions, impossible here with 128-deep queues and 30-frame streams).
    // Holds across every migration — completed, rolled back, or rejected
    // at the kMigrating door — because moves drain and requeue, never drop.
    EXPECT_EQ(stats.frames_in, stats.frames_out + stats.non_finite_frames +
                                   stats.queue_evicted + stats.deadline_shed);
    EXPECT_EQ(stats.in_flight, 0u);
    EXPECT_GT(stats.migrations + stats.migration_failures, 0u);
    // The matrix actually fired where it statistically must (~4-5 expected
    // corruptions per point over ~90 submissions at p = 0.05).
    EXPECT_GT(stats.non_finite_frames + stats.non_finite_labels, 0u);
    // Every pose that did come out is finite — corruption never propagates.
    for (std::size_t s = 0; s < kSessions; ++s)
      for (const auto& r : server.poll_results(ids[s])) {
        ASSERT_TRUE(std::isfinite(r.raw.joints[0].x));
        ASSERT_TRUE(std::isfinite(r.tracked.joints[0].x));
      }
    // The stats endpoint stays serializable mid-chaos.
    EXPECT_NE(server.stats_json().find("\"robustness\""), std::string::npos);
    fs::remove_all(dir);
  }
}

// A synchronous run under the same seed is bit-for-bit reproducible:
// identical fault firings, identical rejection counts, identical poses.
TEST(Chaos, SyncRunUnderFaultsIsSeedDeterministic) {
  auto& pl = world();
  constexpr std::size_t kFrames = 32;
  struct RunResult {
    std::vector<fuse::serve::PoseResult> results;
    std::uint64_t non_finite_frames, non_finite_labels;
  };
  const auto run = [&] {
    FaultConfig fc;
    fc.seed = 77;
    fc.p(FaultPoint::kCorruptCloud) = 0.2;
    fc.p(FaultPoint::kCorruptLabel) = 0.2;
    ScopedFaults faults(fc);
    ServeConfig cfg = adapting_cfg();
    cfg.session.quarantine_after = 0;  // keep every guard decision local
    Server server(&pl.predictor(), &pl.model(), cfg);
    const auto id = server.open_session();
    const auto stream = labeled_frames(0, kFrames);
    for (const auto& f : stream) {
      server.submit_frame(id, f.cloud, &f.label);
      server.drain();
    }
    const auto stats = server.stats();
    return RunResult{server.poll_results(id), stats.non_finite_frames,
                     stats.non_finite_labels};
  };
  const auto a = run(), b = run();
  EXPECT_GT(a.non_finite_frames, 0u);
  EXPECT_EQ(a.non_finite_frames, b.non_finite_frames);
  EXPECT_EQ(a.non_finite_labels, b.non_finite_labels);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    expect_pose_eq(a.results[i].raw, b.results[i].raw);
    expect_pose_eq(a.results[i].tracked, b.results[i].tracked);
  }
}

// --------------------------------------- crash-consistent clone restore --

/// Fixture state for the restore tests: adapts kSessions clones on a first
/// server, captures unlabeled probe references, persists, and tears the
/// server down — the "process before the crash".
struct RestoreWorld {
  static constexpr std::size_t kSessions = 3;
  static constexpr std::size_t kProbe = 5;
  std::string dir;
  ServeConfig cfg;
  std::vector<fuse::serve::SessionId> ids;
  std::vector<LabeledFrame> probe;
  std::vector<std::vector<fuse::serve::PoseResult>> ref;

  explicit RestoreWorld(const char* name) {
    auto& pl = world();
    dir = fresh_dir(name);
    cfg = adapting_cfg();
    cfg.clone_store.dir = dir;
    cfg.session.tracking = false;  // tracker state is not persisted
    probe = labeled_frames(3, kProbe);
    ref.resize(kSessions);

    Server server(&pl.predictor(), &pl.model(), cfg);
    std::vector<std::vector<LabeledFrame>> streams;
    for (std::size_t s = 0; s < kSessions; ++s) {
      ids.push_back(server.open_session());
      streams.push_back(labeled_frames(s, 12));
    }
    for (std::size_t i = 0; i < streams[0].size(); ++i) {
      for (std::size_t s = 0; s < kSessions; ++s)
        server.submit_frame(ids[s], streams[s][i].cloud,
                            &streams[s][i].label);
      server.drain();
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      EXPECT_EQ(server.stats().per_session[s].adapt_state,
                AdaptState::kAdapted);
      (void)server.poll_results(ids[s]);
    }
    // Unlabeled probe on the original server = the recovery reference.
    for (std::size_t i = 0; i < kProbe; ++i) {
      for (std::size_t s = 0; s < kSessions; ++s)
        server.submit_frame(ids[s], probe[i].cloud);
      server.drain();
    }
    for (std::size_t s = 0; s < kSessions; ++s)
      ref[s] = server.poll_results(ids[s]);
    server.persist_clones();
  }

  std::string delta_path(std::size_t s) const {
    return dir + "/clone_" + std::to_string(ids[s]) + ".delta";
  }

  /// Probes `server` on the given restored session and asserts bit-exact
  /// recovery against the pre-crash reference.  The restored fusion window
  /// starts empty; with 3-frame windows both servers hold exactly
  /// [p_{i-2}, p_{i-1}, p_i] from probe index 2 on.
  void expect_recovered(Server& server, std::size_t s) {
    for (std::size_t i = 0; i < kProbe; ++i)
      server.submit_frame(ids[s], probe[i].cloud);
    server.drain();
    const auto results = server.poll_results(ids[s]);
    ASSERT_EQ(results.size(), kProbe);
    for (std::size_t i = 0; i < kProbe; ++i)
      EXPECT_TRUE(results[i].adapted_model) << "session " << s;
    for (std::size_t i = 2; i < kProbe; ++i)
      expect_pose_eq(results[i].raw, ref[s][i].raw);
  }
};

// The headline acceptance test: a checkpoint torn mid-write (the injected
// equivalent of a kill -9 between write() and rename()).  restore_clones
// must recover every uncorrupted clone bit-exactly and REPORT the corrupt
// one — not throw on it.
TEST(Chaos, MidCheckpointKillRecoversUncorruptedClonesBitExactly) {
  auto& pl = world();
  RestoreWorld w("fuse_chaos_kill");

  // Truncate session 0's checkpoint to half its bytes: exactly the on-disk
  // state a crash mid-checkpoint leaves behind when the tmp file's rename
  // already landed but the data didn't all reach it.
  {
    std::ifstream is(w.delta_path(0), std::ios::binary);
    std::string blob{std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>()};
    ASSERT_GT(blob.size(), 2u);
    std::ofstream os(w.delta_path(0), std::ios::binary | std::ios::trunc);
    os.write(blob.data(), static_cast<std::streamsize>(blob.size() / 2));
  }

  Server server(&pl.predictor(), &pl.model(), w.cfg);
  std::vector<fuse::serve::SessionId> restored;
  ASSERT_NO_THROW(restored = server.restore_clones(w.cfg.session));
  ASSERT_EQ(restored.size(), RestoreWorld::kSessions - 1);
  EXPECT_EQ(std::find(restored.begin(), restored.end(), w.ids[0]),
            restored.end());
  EXPECT_EQ(server.stats().clone_store.restore_skipped, 1u);
  // The corrupt file was cleaned off disk; the survivors serve bit-exactly.
  EXPECT_FALSE(fs::exists(w.delta_path(0)));
  w.expect_recovered(server, 1);
  w.expect_recovered(server, 2);
  fs::remove_all(w.dir);
}

// A checkpoint DELETED between persist and restore: the directory scan
// no longer finds it, and every other session restores bit-exactly.
TEST(Chaos, RestoreToleratesDeletedCheckpoint) {
  auto& pl = world();
  RestoreWorld w("fuse_chaos_deleted");
  fs::remove(w.delta_path(1));

  Server server(&pl.predictor(), &pl.model(), w.cfg);
  const auto restored = server.restore_clones(w.cfg.session);
  ASSERT_EQ(restored.size(), RestoreWorld::kSessions - 1);
  EXPECT_EQ(std::find(restored.begin(), restored.end(), w.ids[1]),
            restored.end());
  w.expect_recovered(server, 0);
  w.expect_recovered(server, 2);
  fs::remove_all(w.dir);
}

// Injected torn writes on EVERY checkpoint of a persist: restore finds
// only garbage, reports all of it, recovers nothing — and
// the server still cold-starts cleanly.
TEST(Chaos, FullyTornPersistIsReportedNotFatal) {
  auto& pl = world();
  RestoreWorld w("fuse_chaos_torn");

  {
    FaultConfig fc;
    fc.p(FaultPoint::kTornWrite) = 1.0;
    ScopedFaults faults(fc);
    ServeConfig cfg = w.cfg;
    Server server(&pl.predictor(), &pl.model(), cfg);
    const auto restored = server.restore_clones(cfg.session);
    // The pristine generation from RestoreWorld is still intact, so this
    // restore succeeds...
    ASSERT_EQ(restored.size(), RestoreWorld::kSessions);
    // ...but re-adapting and re-persisting under 100% torn writes shreds
    // every new checkpoint.
    const auto stream = labeled_frames(0, 12);
    for (const auto& f : stream) {
      for (const auto id : w.ids) server.submit_frame(id, f.cloud, &f.label);
      server.drain();
    }
    ASSERT_NO_THROW(server.persist_clones());
  }

  Server server2(&pl.predictor(), &pl.model(), w.cfg);
  std::vector<fuse::serve::SessionId> restored;
  ASSERT_NO_THROW(restored = server2.restore_clones(w.cfg.session));
  EXPECT_TRUE(restored.empty());
  EXPECT_GE(server2.stats().clone_store.restore_skipped,
            RestoreWorld::kSessions);
  // Cold start still serves.
  const auto id = server2.open_session();
  const auto f = labeled_frames(0, 1);
  ASSERT_EQ(server2.submit_frame(id, f[0].cloud), SubmitResult::kAccepted);
  server2.drain();
  EXPECT_EQ(server2.poll_results(id).size(), 1u);
  fs::remove_all(w.dir);
}

// Injected ENOSPC/EIO on every write: persist_clones is best-effort — it
// counts the failures and returns instead of taking the server down.
TEST(Chaos, CheckpointWriteFailuresAreContainedAndCounted) {
  auto& pl = world();
  const std::string dir = fresh_dir("fuse_chaos_enospc");
  ServeConfig cfg = adapting_cfg();
  cfg.clone_store.dir = dir;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto id = server.open_session();
  const auto stream = labeled_frames(0, 12);
  for (const auto& f : stream) {
    server.submit_frame(id, f.cloud, &f.label);
    server.drain();
  }
  ASSERT_EQ(server.stats().per_session[0].adapt_state, AdaptState::kAdapted);

  {
    FaultConfig fc;
    fc.p(FaultPoint::kDiskWrite) = 1.0;
    ScopedFaults faults(fc);
    ASSERT_NO_THROW(server.persist_clones());
  }
  // The checkpoint write failed and was counted; nothing landed.
  EXPECT_EQ(server.stats().clone_store.checkpoint_failures, 1u);
  Server server2(&pl.predictor(), &pl.model(), cfg);
  EXPECT_TRUE(server2.restore_clones(cfg.session).empty());
  fs::remove_all(dir);
}

/// True when `got` serves bit-exactly what `want` served, from probe
/// index 2 on (RestoreWorld::expect_recovered's window rule).
bool same_poses(const std::vector<fuse::serve::PoseResult>& got,
                const std::vector<fuse::serve::PoseResult>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 2; i < got.size(); ++i)
    for (std::size_t j = 0; j < fuse::human::kNumJoints; ++j) {
      const auto& a = got[i].raw.joints[j];
      const auto& b = want[i].raw.joints[j];
      if (a.x != b.x || a.y != b.y || a.z != b.z) return false;
    }
  return true;
}

// The flat store's crash-safety statement: a crash at any point of a
// migration or a persist leaves every session restorable, under any shard
// count.  A migration writes and deletes no file, whether it is killed
// mid-move or lands; a persist replaces each checkpoint atomically, so a
// crash part-way (modelled by failing a random subset of the writes)
// leaves each session with either its previous or its new head.
TEST(Chaos, CrashDuringMigrationOrPersistLeavesEverySessionRestorable) {
  auto& pl = world();
  RestoreWorld w("fuse_chaos_flat_crash");
  ServeConfig two = w.cfg;
  two.num_shards = 2;  // ids 1, 2, 3 -> home shards 0, 1, 0

  // Migrations: one killed at each fault point, then one that lands, and
  // the process dies without persisting.
  for (const FaultPoint point :
       {FaultPoint::kMigrationKill, FaultPoint::kTargetShardCrash,
        FaultPoint::kMigrationOom}) {
    SCOPED_TRACE(fuse::util::fault_point_name(point));
    {
      Server server(&pl.predictor(), &pl.model(), two);
      ASSERT_EQ(server.restore_clones(two.session).size(),
                RestoreWorld::kSessions);
      {
        FaultConfig fc;
        fc.p(point) = 1.0;
        ScopedFaults faults(fc);
        EXPECT_FALSE(server.migrate_session(w.ids[0], 1));
        EXPECT_EQ(fuse::util::fault_fired(point), 1u);
      }
      EXPECT_TRUE(server.migrate_session(w.ids[2], 1));
    }
    for (const std::size_t shards : {1u, 2u}) {
      ServeConfig cfg = w.cfg;
      cfg.num_shards = shards;
      Server server(&pl.predictor(), &pl.model(), cfg);
      ASSERT_EQ(server.restore_clones(cfg.session).size(),
                RestoreWorld::kSessions);
      for (std::size_t s = 0; s < RestoreWorld::kSessions; ++s)
        w.expect_recovered(server, s);
    }
  }

  // Persists that die part-way: every session re-adapts, then a random
  // half of the checkpoint writes fail.  Each session restores with its
  // new head where its write landed and its previous head where it did
  // not — never without one.
  std::size_t landed = 0, failed = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ServeConfig run = two;
    run.clone_store.dir = fresh_dir("fuse_chaos_flat_crash_run");
    fs::copy(w.dir, run.clone_store.dir);
    std::vector<std::vector<fuse::serve::PoseResult>> fresh;
    {
      Server server(&pl.predictor(), &pl.model(), run);
      ASSERT_EQ(server.restore_clones(run.session).size(),
                RestoreWorld::kSessions);
      const auto stream = labeled_frames(4, 12);
      for (const auto& f : stream) {
        for (const auto id : w.ids) server.submit_frame(id, f.cloud, &f.label);
        server.drain();
      }
      for (const auto id : w.ids) (void)server.poll_results(id);
      for (const auto& f : w.probe) {
        for (const auto id : w.ids) server.submit_frame(id, f.cloud);
        server.drain();
      }
      for (const auto id : w.ids) fresh.push_back(server.poll_results(id));
      FaultConfig fc;
      fc.seed = seed;
      fc.p(FaultPoint::kDiskWrite) = 0.5;
      ScopedFaults faults(fc);
      ASSERT_NO_THROW(server.persist_clones());
      failed += fuse::util::fault_fired(FaultPoint::kDiskWrite);
      landed += RestoreWorld::kSessions -
                fuse::util::fault_fired(FaultPoint::kDiskWrite);
    }
    Server server(&pl.predictor(), &pl.model(), run);
    ASSERT_EQ(server.restore_clones(run.session).size(),
              RestoreWorld::kSessions);
    for (const auto& f : w.probe) {
      for (const auto id : w.ids) server.submit_frame(id, f.cloud);
      server.drain();
    }
    for (std::size_t s = 0; s < RestoreWorld::kSessions; ++s) {
      const auto got = server.poll_results(w.ids[s]);
      EXPECT_TRUE(same_poses(got, fresh[s]) || same_poses(got, w.ref[s]))
          << "session " << w.ids[s] << " restored neither head";
      EXPECT_FALSE(same_poses(fresh[s], w.ref[s]));  // the heads differ
    }
    fs::remove_all(run.clone_store.dir);
  }
  EXPECT_GT(landed, 0u);
  EXPECT_GT(failed, 0u);
  fs::remove_all(w.dir);
}

// Satellite: a NaN label must never reach the adaptation buffer — the
// session's poses stay bit-identical to a never-labeled run and the clone
// is never created.
TEST(Chaos, NanLabelsNeverPoisonAdaptation) {
  auto& pl = world();
  constexpr std::size_t kFrames = 24;
  const auto stream = labeled_frames(0, kFrames);

  ServeConfig cfg = adapting_cfg();
  cfg.session.quarantine_after = 0;  // isolate the guard from quarantine
  Server poisoned(&pl.predictor(), &pl.model(), cfg);
  Server clean(&pl.predictor(), &pl.model(), cfg);
  const auto idp = poisoned.open_session();
  const auto idc = clean.open_session();
  {
    FaultConfig fc;
    fc.p(FaultPoint::kCorruptLabel) = 1.0;  // every label arrives NaN
    ScopedFaults faults(fc);
    for (const auto& f : stream) {
      poisoned.submit_frame(idp, f.cloud, &f.label);
      poisoned.drain();
    }
  }
  for (const auto& f : stream) {
    clean.submit_frame(idc, f.cloud);  // no labels at all
    clean.drain();
  }

  const auto stats = poisoned.stats();
  EXPECT_EQ(stats.non_finite_labels, kFrames);
  EXPECT_EQ(stats.per_session[0].adapt_rounds, 0u);
  EXPECT_NE(stats.per_session[0].adapt_state, AdaptState::kAdapted);
  const auto rp = poisoned.poll_results(idp);
  const auto rc = clean.poll_results(idc);
  ASSERT_EQ(rp.size(), kFrames);
  ASSERT_EQ(rc.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_FALSE(rp[i].adapted_model);
    expect_pose_eq(rp[i].raw, rc[i].raw);
  }
}

// --------------------------------------------- live-migration rollback --

// A migration killed mid-move (before the head is adopted, by a target
// shard crash, or by std::bad_alloc) rolls back completely: the
// session never leaves its source shard, every drained frame is requeued
// in order, the failure is counted, and the same migration lands cleanly
// once the fault clears — bit-exact against a server that never migrated
// at all.
TEST(Chaos, LiveMigrationFaultsRollBackWithoutLosingFrames) {
  auto& pl = world();
  const struct {
    FaultPoint point;
    const char* name;
  } kPoints[] = {
      {FaultPoint::kMigrationKill, "kMigrationKill"},
      {FaultPoint::kTargetShardCrash, "kTargetShardCrash"},
      {FaultPoint::kMigrationOom, "kMigrationOom"},
  };
  for (const auto& [point, name] : kPoints) {
    SCOPED_TRACE(name);
    ServeConfig cfg = adapting_cfg();
    cfg.num_shards = 2;
    cfg.session.tracking = false;
    Server server(&pl.predictor(), &pl.model(), cfg);
    Server control(&pl.predictor(), &pl.model(), cfg);
    const auto id = server.open_session();  // id 1 -> home shard 0
    const auto cid = control.open_session();
    const auto stream = labeled_frames(0, 12);
    for (const auto& f : stream) {
      server.submit_frame(id, f.cloud, &f.label);
      control.submit_frame(cid, f.cloud, &f.label);
      server.drain();
      control.drain();
    }
    ASSERT_EQ(server.stats().per_session[0].adapt_state,
              AdaptState::kAdapted);
    (void)server.poll_results(id);
    (void)control.poll_results(cid);

    // Queue a backlog, then kill the migration at `point`.
    const auto probe = labeled_frames(3, 6);
    for (const auto& f : probe) {
      ASSERT_EQ(server.submit_frame(id, f.cloud), SubmitResult::kAccepted);
      control.submit_frame(cid, f.cloud);
    }
    {
      FaultConfig fc;
      fc.p(point) = 1.0;
      ScopedFaults faults(fc);
      EXPECT_FALSE(server.migrate_session(id, 1));  // the move dies
    }
    auto stats = server.stats();
    EXPECT_EQ(stats.migration_failures, 1u);
    EXPECT_EQ(stats.migrations, 0u);
    EXPECT_EQ(server.shard_of(id), 0u);  // never left the source shard
    server.drain();
    control.drain();

    // Every queued frame survived the rollback, in order, bit-exactly.
    const auto got = server.poll_results(id);
    const auto want = control.poll_results(cid);
    ASSERT_EQ(got.size(), probe.size());
    ASSERT_EQ(want.size(), probe.size());
    for (std::size_t i = 0; i < probe.size(); ++i) {
      EXPECT_TRUE(got[i].adapted_model);
      expect_pose_eq(got[i].raw, want[i].raw);
    }
    stats = server.stats();
    EXPECT_EQ(stats.frames_in, stats.frames_out);  // nothing lost

    // Fault cleared: the same migration now lands, still bit-exact.
    ASSERT_TRUE(server.migrate_session(id, 1));
    EXPECT_EQ(server.shard_of(id), 1u);
    EXPECT_EQ(server.stats().migrations, 1u);
    for (const auto& f : probe) {
      server.submit_frame(id, f.cloud);
      control.submit_frame(cid, f.cloud);
    }
    server.drain();
    control.drain();
    const auto got2 = server.poll_results(id);
    const auto want2 = control.poll_results(cid);
    ASSERT_EQ(got2.size(), want2.size());
    for (std::size_t i = 0; i < got2.size(); ++i)
      expect_pose_eq(got2[i].raw, want2[i].raw);
  }
}

// ------------------------------------------------ quarantine isolation --

// A sensor streaming garbage gets its session quarantined: the corrupt
// frames are rejected, the (possibly poisoned) clone and checkpoint are
// dropped, clean frames serve from the shared meta-init — and the
// NEIGHBOUR session sharing the scheduler is completely unaffected.
// recycle_session lifts the quarantine for the next subject.
TEST(Chaos, QuarantineIsolatesOffenderAndRecycleLifts) {
  auto& pl = world();
  const std::string dir = fresh_dir("fuse_chaos_quarantine");
  ServeConfig cfg = adapting_cfg();
  cfg.clone_store.dir = dir;
  cfg.session.quarantine_after = 4;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto offender = server.open_session();
  const auto neighbour = server.open_session();

  // Both sessions adapt normally first.
  const auto so = labeled_frames(0, 12);
  const auto sn = labeled_frames(1, 12);
  for (std::size_t i = 0; i < 12; ++i) {
    server.submit_frame(offender, so[i].cloud, &so[i].label);
    server.submit_frame(neighbour, sn[i].cloud, &sn[i].label);
    server.drain();
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.per_session[0].adapt_state, AdaptState::kAdapted);
  EXPECT_EQ(stats.clone_store.tracked, 2u);
  (void)server.poll_results(offender);
  (void)server.poll_results(neighbour);

  // The offender now streams NaN clouds past its quarantine threshold.
  for (int i = 0; i < 4; ++i) {
    server.submit_frame(offender, nan_cloud(so[0].cloud));
    server.drain();
  }
  stats = server.stats();
  EXPECT_TRUE(server.poll_results(offender).empty());  // all rejected
  EXPECT_EQ(stats.non_finite_frames, 4u);
  EXPECT_EQ(stats.quarantined_sessions, 1u);
  EXPECT_TRUE(stats.per_session[0].quarantined);
  // Quarantine demotes to the shared model and drops clone + checkpoint.
  EXPECT_EQ(stats.per_session[0].adapt_state, AdaptState::kShared);
  EXPECT_EQ(stats.clone_store.tracked, 1u);
  EXPECT_FALSE(fs::exists(dir + "/clone_" + std::to_string(offender) +
                          ".delta"));

  // Clean frames from a quarantined session still serve — shared model,
  // and no NEW adaptation rounds run even with labels attached (the
  // pre-quarantine rounds stay on the cumulative counter).
  const auto rounds_at_quarantine = stats.per_session[0].adapt_rounds;
  for (std::size_t i = 0; i < 8; ++i) {
    server.submit_frame(offender, so[i].cloud, &so[i].label);
    server.drain();
  }
  auto results = server.poll_results(offender);
  ASSERT_EQ(results.size(), 8u);
  for (const auto& r : results) EXPECT_FALSE(r.adapted_model);
  EXPECT_EQ(server.stats().per_session[0].adapt_rounds,
            rounds_at_quarantine);

  // The neighbour never noticed: still adapted, still serving its clone.
  server.submit_frame(neighbour, sn[0].cloud);
  server.drain();
  results = server.poll_results(neighbour);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].adapted_model);

  // Recycling the offender (new subject, new sensor) lifts the quarantine.
  server.recycle_session(offender);
  for (std::size_t i = 0; i < 12; ++i) {
    server.submit_frame(offender, so[i].cloud, &so[i].label);
    server.drain();
  }
  stats = server.stats();
  EXPECT_FALSE(stats.per_session[0].quarantined);
  EXPECT_EQ(stats.per_session[0].adapt_state, AdaptState::kAdapted);
  EXPECT_EQ(stats.quarantined_sessions, 0u);
  fs::remove_all(dir);
}

// ------------------------------------------------- admission control ----

TEST(Chaos, AdmissionControlBoundsGlobalInFlight) {
  auto& pl = world();
  ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_in_flight = 8;
  cfg.session.queue_capacity = 64;
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto a = server.open_session();
  const auto b = server.open_session();
  const auto stream = labeled_frames(0, 20);

  // The budget is GLOBAL: 8 accepted across both sessions, the rest
  // refused at the door regardless of per-session queue headroom.
  std::size_t taken = 0, refused = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    for (const auto id : {a, b}) {
      const auto r = server.submit_frame(id, stream[i].cloud);
      taken += fuse::serve::accepted(r);
      refused += r == SubmitResult::kAdmissionRejected;
    }
  }
  EXPECT_EQ(taken, 8u);
  EXPECT_EQ(refused, 12u);  // the typed code names the cause
  auto stats = server.stats();
  EXPECT_EQ(stats.in_flight, 8u);
  EXPECT_EQ(stats.admission_rejected, 12u);
  EXPECT_EQ(stats.frames_in, 8u);

  // Serving releases the budget: everything queued serves, and submission
  // works again afterwards.
  server.drain();
  stats = server.stats();
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.frames_out, 8u);
  EXPECT_EQ(server.submit_frame(a, stream[0].cloud), SubmitResult::kAccepted);
  server.drain();
  // Closing a session with queued frames must release its budget share.
  for (std::size_t i = 0; i < 8; ++i) server.submit_frame(b, stream[i].cloud);
  server.close_session(b);
  EXPECT_EQ(server.stats().in_flight, 0u);
  EXPECT_EQ(server.submit_frame(a, stream[0].cloud), SubmitResult::kAccepted);
}

// -------------------------------------------- degradation ladder, e2e ---

// Satellite: the ladder driven deterministically in synchronous mode by
// real queue depths (tick signal off) — climbs to shed under a burst,
// sheds the backlog pre-inference, then unwinds to full fidelity within
// one detector window of the queue clearing.
TEST(Chaos, OverloadLadderShedsBacklogAndRecovers) {
  auto& pl = world();
  ServeConfig cfg = adapting_cfg();
  cfg.max_batch = 2;
  cfg.session.queue_capacity = 128;
  cfg.overload.enabled = true;
  cfg.overload.queue_high_water = 8;
  cfg.overload.tick_high_s = 0.0;  // queue-depth signal only: no wall clock
  cfg.overload.engage_passes = 1;
  cfg.overload.release_passes = 2;
  cfg.overload.release_step_passes = 1;
  cfg.overload.shed_deadline_s = 0.0;  // at rung 2 every queued frame sheds
  Server server(&pl.predictor(), &pl.model(), cfg);
  const auto id = server.open_session();
  const auto stream = labeled_frames(0, 64);

  // A 64-frame burst against a 2-frame batch: unsustainable by
  // construction (~32 passes of backlog).
  for (const auto& f : stream)
    ASSERT_TRUE(fuse::serve::accepted(server.submit_frame(id, f.cloud,
                                                          &f.label)));
  std::vector<int> levels;
  for (int pass = 0; pass < 40 && server.stats().in_flight > 0; ++pass) {
    server.run_once();
    levels.push_back(server.stats().overload_level);
  }
  // The ladder climbed one rung per pass to shedding, which cleared the
  // backlog orders of magnitude faster than inference would have.
  ASSERT_GE(levels.size(), 3u);
  EXPECT_EQ(levels[0], 1);
  EXPECT_EQ(levels[1], 2);
  EXPECT_EQ(levels[2], 2);
  const auto mid = server.stats();
  EXPECT_GT(mid.deadline_shed, 0u);
  EXPECT_GT(mid.shed_rate, 0.0);
  EXPECT_EQ(mid.frames_in,
            mid.frames_out + mid.deadline_shed + mid.non_finite_frames);
  // Adaptation was paused from the first rung on: only the frames served
  // before the ladder engaged could buffer, far short of a round.
  EXPECT_EQ(mid.per_session[0].adapt_rounds, 0u);

  // Recovery: with the queue empty, release_passes + step passes unwind
  // both rungs — full fidelity within one detector window.
  for (int pass = 0; pass < 4; ++pass) server.run_once();
  const auto post = server.stats();
  EXPECT_EQ(post.overload_level, 0);
  EXPECT_EQ(post.overload_level_name, "normal");
  EXPECT_GE(post.overload_transitions, 4u);
  // Normal service resumes end to end.
  server.submit_frame(id, stream[0].cloud);
  server.drain();
  EXPECT_EQ(server.stats().overload_level, 0);
  EXPECT_FALSE(server.poll_results(id).empty());
}

}  // namespace
