// Rehabilitation-clinic serving demo: one radar per patient room, eight
// patients monitored concurrently by a single serving runtime.
//
// Each patient is a streaming session with its own fusion window and pose
// tracker; the inference scheduler batches frames across all eight rooms
// into single CNN forward passes.  Half the patients run a short
// "therapist calibration": their first frames arrive with ground-truth
// poses (in a real clinic, from a one-off Kinect session), which the
// server uses to fine-tune a per-patient copy of the meta-learned model
// online — the paper's fast-adaptation result, applied at serving time.
//
// The server runs under a deliberately tight clone budget
// (--clone-budget resident adapted clones, default 2): idle patients'
// fine-tuned heads are checkpointed to disk and evicted live,
// then rehydrated bit-exactly when their room streams again.  After the
// day's session the demo closes the clinic (persist_clones), boots a
// fresh server the "next morning" (restore_clones) and shows every
// adapted patient resuming from their own model — the warm-restart
// story, with the clone-store counters printed at exit.
//
// --shards > 1 hashes the patient sessions across that many scheduler
// shards (serve::Server, PR 9): each shard runs its own scheduler thread
// with a private workspace, clone store and overload detector, and the
// live monitor prints the per-shard stats rows next to the merged view.
//
// Run: ./clinic_server [--scale=0.5] [--patients=8] [--frames=80]
//                      [--clone-budget=2] [--shards=1]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "serve/server.h"
#include "util/cli.h"
#include "util/stopwatch.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const fuse::util::Cli cli(argc, argv);
  const double scale = cli.paper() ? 1.0 : cli.scale();
  const auto n_patients =
      static_cast<std::size_t>(cli.get_int("patients", 8));
  const auto n_frames = static_cast<std::size_t>(cli.get_int("frames", 80));
  const auto n_labeled = std::min<std::size_t>(24, n_frames / 2);

  std::printf("FUSE clinic server: %zu concurrent patients\n\n", n_patients);

  // Meta-train the shared initialization (ships pre-trained in deployment).
  fuse::core::PipelineConfig cfg;
  cfg.data.frames_per_sequence = fuse::util::scaled(120, scale, 40);
  cfg.fusion_m = 1;
  cfg.train.epochs = fuse::util::scaled(10, scale, 2);
  cfg.meta.iterations = fuse::util::scaled(60, scale, 10);
  fuse::core::FusePipeline pipeline(cfg);
  fuse::util::Stopwatch sw;
  pipeline.prepare_data();
  pipeline.train_baseline();  // supervised warm-up
  pipeline.train_meta();      // FOMAML: shape the init for fast adaptation
  std::printf("shared meta-model ready: %zu params [%.1f s]\n\n",
              pipeline.model().num_params(), sw.seconds());

  // The serving runtime around the trained pipeline, sized to the clinic.
  // The clone store keeps at most --clone-budget adapted models in RAM;
  // the rest live as head checkpoints next to the process and rehydrate
  // on demand — watch the [live] eviction/rehydration counters.
  const std::string clone_dir =
      std::filesystem::temp_directory_path().string() +
      "/fuse_clinic_clones";
  std::filesystem::remove_all(clone_dir);
  fuse::serve::ServeConfig scfg;
  scfg.max_sessions = std::max<std::size_t>(n_patients, 1);
  scfg.max_batch = 16;
  scfg.num_shards = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("shards", 1)));
  scfg.session.queue_capacity = 32;
  scfg.session.results_capacity = n_frames;
  scfg.clone_store.dir = clone_dir;
  scfg.clone_store.max_resident_clones = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("clone-budget", 2)));
  auto server_ptr = std::make_unique<fuse::serve::Server>(
      &pipeline.predictor(), &pipeline.model(), scfg);
  auto& server = *server_ptr;
  std::printf("clone store: dir %s, budget %zu resident adapted clones"
              "%s\n",
              clone_dir.c_str(), scfg.clone_store.max_resident_clones,
              scfg.num_shards > 1 ? " (per shard)" : "");
  std::printf("scheduler shards: %zu (sessions hash (id-1) %% shards)\n\n",
              scfg.num_shards);

  // Odd-numbered patients get online adaptation from labeled calibration
  // frames; even-numbered ones serve the shared model as-is.
  const auto& ds = pipeline.dataset();
  std::vector<fuse::serve::SessionId> ids;
  std::vector<std::size_t> seq_of;
  for (std::size_t p = 0; p < n_patients; ++p) {
    fuse::serve::SessionConfig sc = scfg.session;
    sc.adapt.enabled = (p % 2 == 1);
    sc.adapt.min_samples = 12;
    sc.adapt.round_every = 6;
    ids.push_back(server.open_session(sc));
    // Stream a held-out-ish sequence per patient (spread across subjects).
    seq_of.push_back((p * 5 + 3) % ds.sequences.size());
  }

  std::printf("streaming %zu frames/patient (%zu calibration frames for "
              "adapting patients)...\n",
              n_frames, n_labeled);
  server.start();
  sw.reset();

  // Live stats monitor: polls the server's telemetry snapshot while the
  // scheduler thread is batching — the same stats()/stats_json() payload a
  // real deployment would expose over HTTP.  Snapshots are consistent
  // (merged per scheduling pass) and never block the inference hot path.
  std::atomic<bool> serving{true};
  std::thread monitor([&] {
    while (serving.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      const auto live = server.stats();
      double infer_p99 = 0.0;
      for (const auto& st : live.stages)
        if (st.stage == "infer") infer_p99 = st.p99_ms;
      std::printf("  [live] in %llu  out %llu  batches %llu  queue hwm %zu  "
                  "infer p99 %.2f ms  drop rate %.4f  clones %zu/%zu "
                  "resident  evictions %llu  rehydrations %llu\n",
                  static_cast<unsigned long long>(live.frames_in),
                  static_cast<unsigned long long>(live.frames_out),
                  static_cast<unsigned long long>(live.batches),
                  live.queue_depth_hwm, infer_p99, live.drop_rate,
                  live.clone_store.resident, live.clone_store.tracked,
                  static_cast<unsigned long long>(
                      live.clone_store.evictions),
                  static_cast<unsigned long long>(
                      live.clone_store.rehydrations));
      if (live.shards > 1)
        for (const auto& sh : live.per_shard)
          std::printf("    [shard %zu] sessions %zu  out %llu  in-flight "
                      "%zu  batches %llu  p99 %.2f ms\n",
                      sh.shard, sh.sessions,
                      static_cast<unsigned long long>(sh.frames_out),
                      sh.in_flight,
                      static_cast<unsigned long long>(sh.batches),
                      sh.latency_p99_ms);
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < n_patients; ++p) {
    producers.emplace_back([&, p] {
      const auto [start, len] = ds.sequences[seq_of[p]];
      const bool adapting = (p % 2 == 1);
      for (std::size_t i = 0; i < n_frames; ++i) {
        const auto& frame = ds.frames[start + (i % len)];
        const bool labeled = adapting && i < n_labeled;
        (void)server.submit_frame(ids[p], frame.cloud,
                                  labeled ? &frame.label : nullptr);
        // 10 Hz radar, compressed 100x so the demo finishes in ~0.1 s of
        // wall clock per 100 frames.
        std::this_thread::sleep_for(std::chrono::microseconds(1000));
      }
    });
  }
  for (auto& t : producers) t.join();
  serving = false;
  monitor.join();
  server.stop();
  const double serve_secs = sw.seconds();

  // Per-patient report: pose error against ground truth + adaptation state.
  fuse::util::Table table("clinic sessions");
  table.set_header({"patient", "frames", "drops", "MAE cm", "model",
                    "rounds", "last loss"});
  for (std::size_t p = 0; p < n_patients; ++p) {
    const auto results = server.poll_results(ids[p]);
    const auto [start, len] = ds.sequences[seq_of[p]];
    double mae_m = 0.0;
    for (const auto& r : results) {
      const auto& truth = ds.frames[start + (r.seq % len)].label;
      const auto e = r.tracked.mean_abs_error(truth);
      mae_m += (e.x + e.y + e.z) / 3.0;
    }
    if (!results.empty()) mae_m /= static_cast<double>(results.size());
    const auto ss = server.stats().per_session[p];
    table.add_row({"P" + std::to_string(p), std::to_string(results.size()),
                   std::to_string(ss.frames_dropped),
                   fuse::util::Table::num(mae_m * 100.0, 1),
                   fuse::serve::adapt_state_name(ss.adapt_state),
                   std::to_string(ss.adapt_rounds),
                   fuse::util::Table::num(ss.last_adapt_loss, 3)});
  }
  std::printf("%s\n", table.to_string().c_str());

  const auto stats = server.stats();
  std::printf("served %llu frames in %.2f s (%.0f frames/s), "
              "%.1f frames/batch\n",
              static_cast<unsigned long long>(stats.frames_out), serve_secs,
              static_cast<double>(stats.frames_out) / serve_secs,
              stats.mean_batch);
  std::printf("latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, max %.2f ms\n",
              stats.latency_p50_ms, stats.latency_p95_ms,
              stats.latency_p99_ms, stats.latency_max_ms);

  const auto cs = stats.clone_store;
  std::printf("clone store (day 1): %zu tracked, %zu resident, "
              "%llu evictions, %llu rehydrations, %llu checkpoint writes, "
              "%.1f MB on disk\n",
              cs.tracked, cs.resident,
              static_cast<unsigned long long>(cs.evictions),
              static_cast<unsigned long long>(cs.rehydrations),
              static_cast<unsigned long long>(cs.checkpoint_writes),
              static_cast<double>(cs.disk_bytes) / (1024.0 * 1024.0));

  // ------------------------------------------------------ warm restart --
  // The clinic closes: checkpoint every patient's adapted head, tear the
  // whole server down, and boot a fresh one against the same store
  // directory — the "next morning" process.  Each adapted
  // patient resumes from their own fine-tuned model (rehydrated on their
  // first frame), not from the shared meta-init.
  std::printf("\nclinic closing: persisting adapted clones...\n");
  server.persist_clones();
  server_ptr.reset();

  fuse::serve::SessionConfig restored_cfg = scfg.session;
  restored_cfg.adapt.enabled = true;  // restored patients keep adapting
  fuse::serve::Server morning(&pipeline.predictor(),
                              &pipeline.model(), scfg);
  const auto restored = morning.restore_clones(restored_cfg);
  std::printf("next morning: restored %zu adapted patients from %s\n",
              restored.size(), clone_dir.c_str());

  // A short unlabeled morning round per restored patient.
  for (std::size_t i = 0; i < 10; ++i) {
    for (const auto id : restored) {
      // Same room -> same sequence as yesterday (ids are 1-based).
      const auto p = static_cast<std::size_t>(id - 1) % n_patients;
      const auto [start, len] = ds.sequences[seq_of[p]];
      (void)morning.submit_frame(id, ds.frames[start + (i % len)].cloud);
    }
    morning.drain();
  }
  fuse::util::Table morning_table("morning round (restored sessions)");
  morning_table.set_header({"patient", "frames", "model", "rounds"});
  const auto mstats = morning.stats();
  for (const auto& ss : mstats.per_session)
    morning_table.add_row(
        {"P" + std::to_string(ss.id - 1),
         std::to_string(morning.poll_results(ss.id).size()),
         fuse::serve::adapt_state_name(ss.adapt_state),
         std::to_string(ss.adapt_rounds)});
  std::printf("%s\n", morning_table.to_string().c_str());
  const auto mcs = mstats.clone_store;
  std::printf("clone store (after restart): %zu tracked, %zu resident, "
              "%llu rehydrations — every adapted patient came back from "
              "disk\n",
              mcs.tracked, mcs.resident,
              static_cast<unsigned long long>(mcs.rehydrations));

  // The machine-readable version of everything above — what a deployment
  // would return from its /stats endpoint.
  std::printf("\nstats_json payload:\n%s\n", morning.stats_json().c_str());
  std::filesystem::remove_all(clone_dir);
  return 0;
}
