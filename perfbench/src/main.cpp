// perfbench_serve — open-loop 10 Hz serving benchmark of serve::Server.
//
//   perfbench_serve --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>]
//
// One server process: a timed set-up, then an open-loop latency phase at
// the workload's fixed session count whose window of about --seconds is
// cut into blocks of kBlockS.  Timings come from the quieter
// half of the blocks by hypervisor steal (checks.h, quiet_half).  A traced
// run (--trace 1) records spans in every other second of the phase,
// replays the workload's inputs through each layer, and reports the
// per-layer metrics (and writes the Chrome trace).  Every run checks served
// poses against an offline batch-1 reference and balances the frame
// accounting.  The last stdout line is the JSON result; the full report
// (host metadata, annotations, blocks, checks) goes to --out-dir.
// run.py combines several such processes into one benchmark run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "host.h"
#include "layers.h"
#include "loadgen.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using fuse::serve::mono_seconds;

constexpr double kCloseOutS = 5.0;    ///< wait for in-flight frames
/// The measured window is cut into blocks of this length; timings come
/// from the quieter half of them (quiet_half).
constexpr double kBlockS = 1.0;
constexpr double kWarmUpTimeoutS = 30.0;
/// Cube workloads: one clip per movement, three frames each (a full
/// fusion window).
constexpr std::size_t kCubeClips = 10;
constexpr std::size_t kCubeClipFrames = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".bench_build/perfbench-out";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0') return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 &&
         a->trace >= 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string moves;  ///< per-layer: the end-to-end metric it should move
};

/// Thread-safe memo of reference poses across every phase of the run.
class ReferenceCache {
 public:
  explicit ReferenceCache(const Workload& w) : w_(w) {}
  fuse::human::Pose operator()(const std::vector<std::uint32_t>& window) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = memo_.find(window);
      if (it != memo_.end()) return it->second;
    }
    const auto pose = w_.reference(window);
    std::lock_guard<std::mutex> lock(mu_);
    memo_.emplace(window, pose);
    return pose;
  }

 private:
  const Workload& w_;
  std::mutex mu_;
  std::map<std::vector<std::uint32_t>, fuse::human::Pose> memo_;
};

/// What one open-loop phase measured and checked.
struct Phase {
  std::size_t sessions = 0;
  std::vector<double> latency_ms;  ///< window frames; lost ones included
  std::vector<double> traced_ms, untraced_ms;  ///< served, by trace block
  // Per block of the window:
  std::vector<double> block_steal, block_p50_ms, block_p99_ms;
  std::vector<std::size_t> kept;  ///< quiet_half(block_steal)
  double p50_ms = 0.0;  ///< over the frames of the kept blocks
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double server_cpu_ms_per_frame = 0.0;  ///< over kept blocks
  double late_p99_ms = 0.0;
  std::uint64_t sends = 0;       ///< sends of this phase
  std::uint64_t late_sends = 0;  ///< of them, later than kLateBoundMs
  double pose_mae_cm = 0.0;
  Accounting acct;
  OutputCheck check;
  fuse::serve::ServeStats stats;
  std::vector<double> submit_us, poll_us;
  std::uint64_t frames_sent = 0;

  double kept_steal() const {
    std::vector<double> v;
    for (const auto i : kept) v.push_back(block_steal[i]);
    return quantile(v, 0.5);
  }
};

/// Runs one open-loop phase of `blocks` blocks on an already warmed-up
/// server and checks it.
Phase run_phase(const Workload& w, fuse::serve::Server& server, LoadGen& lg,
                std::size_t blocks, ReferenceCache& refs,
                Tracer* tracer = nullptr) {
  const WorkloadSpec& spec = w.spec();
  const double period = frame_period_s();
  const double window_s = static_cast<double>(blocks) * kBlockS;
  Phase p;
  p.sessions = spec.sessions;
  const auto& frames = lg.frames();
  const std::size_t first_frame = frames.size();
  const double t_start = lg.run(spec.fill_s + window_s, tracer);
  lg.close_out(kCloseOutS);
  const double t_close = mono_seconds();
  const double w0 = t_start + spec.fill_s, w1 = w0 + window_s;
  const auto block_of = [&](double t) {
    return static_cast<std::size_t>((t - w0) / kBlockS);
  };

  std::vector<std::vector<double>> block_ms(blocks);
  std::vector<std::uint64_t> block_served(blocks, 0);
  std::vector<double> late_ms;
  double abs_err = 0.0;
  std::uint64_t abs_n = 0;
  for (std::size_t i = first_frame; i < frames.size(); ++i) {
    const FrameRecord& f = frames[i];
    late_ms.push_back((f.t_sent - f.submit_s - f.t_sched) * 1e3);
    p.submit_us.push_back(f.submit_s * 1e6);
    if (f.served && f.t_ready >= w0 && f.t_ready < w1)
      ++block_served[block_of(f.t_ready)];
    if (f.t_sched < w0 || f.t_sched >= w1) continue;
    if (f.served) {
      p.latency_ms.push_back((f.t_ready - f.t_sched) * 1e3);
      (f.traced ? p.traced_ms : p.untraced_ms).push_back(p.latency_ms.back());
      const auto& label = w.label(f.input);
      for (std::size_t j = 0; j < label.joints.size(); ++j) {
        abs_err += std::fabs(f.raw.joints[j].x - label.joints[j].x) +
                   std::fabs(f.raw.joints[j].y - label.joints[j].y) +
                   std::fabs(f.raw.joints[j].z - label.joints[j].z);
        abs_n += 3;
      }
    } else {
      // Lost: it waited at least until close-out, far past a frame period.
      p.latency_ms.push_back((t_close - f.t_sched) * 1e3);
    }
    block_ms[block_of(f.t_sched)].push_back(p.latency_ms.back());
  }
  p.frames_sent = frames.size();  // warm-up frames included
  p.late_p99_ms = quantile(late_ms, 0.99);
  p.sends = late_ms.size();
  p.late_sends = static_cast<std::uint64_t>(
      std::count_if(late_ms.begin(), late_ms.end(),
                    [](double ms) { return ms > kLateBoundMs; }));
  for (const double s : lg.poll_s()) p.poll_us.push_back(s * 1e6);
  p.pose_mae_cm = abs_n ? 100.0 * abs_err / static_cast<double>(abs_n) : 0.0;

  // Block b spans schedule rounds [r(b), r(b + 1)); samples()[r] was read
  // at the start of round r, and the last one at the end of the run.
  const auto& samples = lg.samples();
  const auto sample_at = [&](std::size_t b) -> const LoadGen::Sample& {
    const double t = spec.fill_s + static_cast<double>(b) * kBlockS;
    const auto r = static_cast<std::size_t>(std::lround(t / period));
    return samples[std::min(r, samples.size() - 1)];
  };
  std::vector<double> server_cpu_s(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto &s0 = sample_at(b), &s1 = sample_at(b + 1);
    p.block_steal.push_back(steal_share(s0.host, s1.host));
    p.block_p50_ms.push_back(quantile(block_ms[b], 0.50));
    p.block_p99_ms.push_back(quantile(block_ms[b], 0.99));
    server_cpu_s[b] = (s1.process_cpu_s - s0.process_cpu_s) -
                      (s1.generator_cpu_s - s0.generator_cpu_s);
  }
  p.kept = quiet_half(p.block_steal);
  std::vector<double> kept_ms;
  double cpu_s = 0.0;
  std::uint64_t served = 0;
  for (const auto b : p.kept) {
    kept_ms.insert(kept_ms.end(), block_ms[b].begin(), block_ms[b].end());
    cpu_s += server_cpu_s[b];
    served += block_served[b];
  }
  p.p50_ms = quantile(kept_ms, 0.50);
  p.p90_ms = quantile(kept_ms, 0.90);
  p.p99_ms = quantile(kept_ms, 0.99);
  p.server_cpu_ms_per_frame =
      served ? cpu_s * 1e3 / static_cast<double>(served) : 0.0;

  p.stats = server.stats();
  p.acct = account_frames(frames, lg.server_counts());
  p.check = check_outputs(
      frames, lg.adapting_mask(), w.window_frames(),
      [&refs](const std::vector<std::uint32_t>& win) { return refs(win); });
  return p;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Correctness over every phase of a run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t compared = 0;
  std::uint64_t adapted = 0;
  double max_err_m = 0.0;
  bool balanced = true;
  bool on_time = true;

  /// A lost frame or a late generator fails the run.
  void add(const Phase& p) {
    attempted += p.frames_sent;
    failed += p.check.failures() + p.acct.lost() +
              static_cast<std::uint64_t>(std::llabs(p.acct.unaccounted));
    on_time = on_time && generator_valid(p.late_p99_ms);
    compared += p.check.compared;
    adapted += p.check.adapted;
    max_err_m = std::max(max_err_m, p.check.max_err_m);
    balanced = balanced && p.acct.balanced();
  }
  bool correct() const { return failed == 0 && balanced && on_time; }
};

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i ? "," : "") + fmt(v[i]);
  return s + "]";
}

/// Per-layer metrics read from outside the server during the traced phase.
void serve_layer_metrics(const Phase& p, std::vector<Metric>& m) {
  const char* moves =
      "latency_p50_ms, server_cpu_ms_per_frame on clouds_readonly";
  const auto& st = p.stats;
  double queue_wait_p99 = 0.0;
  for (const auto& stage : st.stages)
    if (stage.stage == "queue_wait") queue_wait_p99 = stage.p99_ms;
  std::uint64_t fmax = 0, fmin = ~std::uint64_t{0};
  for (const auto& row : st.per_shard) {
    fmax = std::max(fmax, row.frames_out);
    fmin = std::min(fmin, row.frames_out);
  }
  std::uint64_t rounds = 0;
  for (const auto& row : st.per_session) rounds += row.adapt_rounds;
  const char* valid = "run validity only: should move nothing";
  m.push_back({"loadgen.late_p99_ms", p.late_p99_ms, "ms", valid});
  m.push_back({"loadgen.frames_sent", static_cast<double>(p.frames_sent),
               "count", valid});
  m.push_back({"serve.submit_p99_us", quantile(p.submit_us, 0.99), "us",
               moves});
  m.push_back({"serve.poll_p99_us", quantile(p.poll_us, 0.99), "us", moves});
  m.push_back({"serve.queue_wait_p99_ms", queue_wait_p99, "ms", moves});
  m.push_back({"serve.batch_mean", st.mean_batch, "frames", moves});
  m.push_back({"serve.batches", static_cast<double>(st.batches), "count",
               moves});
  m.push_back({"serve.dropped", static_cast<double>(p.acct.dropped), "count",
               moves});
  m.push_back({"serve.refused", static_cast<double>(p.acct.refused), "count",
               moves});
  m.push_back({"serve.queue_depth_hwm", static_cast<double>(st.queue_depth_hwm),
               "frames", moves});
  m.push_back({"serve.shard_frames_max_over_min",
               fmin > 0 && fmin != ~std::uint64_t{0}
                   ? static_cast<double>(fmax) / static_cast<double>(fmin)
                   : 0.0,
               "ratio", moves});
  m.push_back({"adapt.rounds", static_cast<double>(rounds), "count",
               "adapt_mixed (not in BENCHMARK.json)"});
}

double metric_value(const std::vector<Metric>& m, const std::string& name) {
  for (const auto& x : m)
    if (x.name == name) return x.value;
  return 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_serve --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  const double t_run0 = mono_seconds();
  const CpuTicks ticks0 = cpu_ticks();
  std::filesystem::create_directories(args.out_dir);
  // The measured window: --seconds, in whole blocks (at least two).
  const auto blocks = static_cast<std::size_t>(
      std::max(2.0, std::floor(args.seconds / kBlockS + 1e-9)));

  // ------------------------------------------------------------ set-up --
  // From nothing to a server with every session open and warmed up.
  // Cube workloads' inputs: what the radars send, made before the set-up.
  const CubeClips cubes =
      spec->kind == Kind::kCubes
          ? simulate_cube_clips(args.seed, kCubeClips, kCubeClipFrames)
          : CubeClips{};
  Tally tally;
  const double t_setup0 = mono_seconds();
  const auto w = std::make_unique<Workload>(*spec, args.seed, &cubes);
  std::vector<fuse::serve::SessionId> ids;
  auto server = w->make_server(spec->sessions, spec->adapting, &ids);
  auto driver = std::make_unique<SyncDriver>(*server);
  auto lg = std::make_unique<LoadGen>(*server, *w, ids, spec->adapting);
  if (!lg->warm_up(kWarmUpTimeoutS)) tally.balanced = false;
  const double setup_s = mono_seconds() - t_setup0;
  std::fprintf(stderr, "[perfbench] %s seed %llu: set-up %.3f s\n",
               spec->name, static_cast<unsigned long long>(args.seed),
               setup_s);

  // ----------------------------------------------- fixed-population phase --
  // Traced runs record spans in every other block of this phase.
  ReferenceCache refs(*w);
  Tracer tracer;
  Phase fixed =
      run_phase(*w, *server, *lg, blocks, refs, traced ? &tracer : nullptr);
  std::fprintf(stderr,
               "[perfbench] %zu sessions, %zu x %.1f s blocks (steal %.1f%% "
               "in the kept half): p50 %.2f ms p90 %.2f ms p99 %.2f ms cpu "
               "%.3f ms/frame; late p99 %.2f ms\n",
               fixed.sessions, blocks, kBlockS,
               100.0 * fixed.kept_steal(), fixed.p50_ms, fixed.p90_ms,
               fixed.p99_ms,
               fixed.server_cpu_ms_per_frame, fixed.late_p99_ms);
  const double peak_rss = peak_rss_mb();
  tally.add(fixed);
  driver.reset();
  lg.reset();
  server.reset();

  std::vector<Metric> metrics;
  if (!traced) {
    metrics.push_back({"setup_s", setup_s, "s", ""});
    metrics.push_back({"latency_p50_ms", fixed.p50_ms, "ms", ""});
    metrics.push_back({"server_cpu_ms_per_frame",
                       fixed.server_cpu_ms_per_frame, "ms", ""});
    metrics.push_back({"frames_served_frac",
                       1.0 - static_cast<double>(fixed.acct.lost()) /
                                 static_cast<double>(fixed.acct.sent),
                       "fraction", ""});
    metrics.push_back({"pose_mae_cm", fixed.pose_mae_cm, "cm", ""});
    metrics.push_back({"peak_rss_mb", peak_rss, "MB", ""});
  } else {
    serve_layer_metrics(fixed, metrics);
    for (auto& m : replay_layers(*w, args.seed, tracer, args.out_dir))
      metrics.push_back({m.name, m.value, m.unit, m.moves});
    const double untraced_p50 = quantile(fixed.untraced_ms, 0.5);
    metrics.push_back(
        {"trace.overhead_pct",
         100.0 * (quantile(fixed.traced_ms, 0.5) - untraced_p50) /
             untraced_p50,
         "%",
         "latency_p50_ms of traced against untraced blocks of one phase; "
         "should move nothing"});
    const std::string trace_path = args.out_dir + "/" + spec->name + "-seed" +
                                   std::to_string(args.seed) + ".trace.json";
    if (!tracer.write(trace_path)) tally.balanced = false;
    std::fprintf(stderr, "[perfbench] %zu spans -> %s\n", tracer.size(),
                 trace_path.c_str());
  }

  std::fprintf(stderr,
               "[perfbench] checks: %llu poses compared (max err %.3g m), %llu "
               "adapted, %llu failed, accounting %s, generator %s; run %.1f "
               "s\n",
               static_cast<unsigned long long>(tally.compared),
               tally.max_err_m, static_cast<unsigned long long>(tally.adapted),
               static_cast<unsigned long long>(tally.failed),
               tally.balanced ? "balanced" : "UNBALANCED",
               tally.on_time ? "on time" : "LATE (run invalid)",
               mono_seconds() - t_run0);

  std::ostringstream result;
  result << "{\"correct\": " << (tally.correct() ? "true" : "false")
         << ", \"attempted\": " << tally.attempted
         << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    result << (i ? ", " : "") << json_quote(metrics[i].name)
           << ": {\"value\": " << fmt(metrics[i].value)
           << ", \"unit\": " << json_quote(metrics[i].unit) << "}";
  result << "}}";

  // The full report: metadata, per-metric annotations, blocks, checks.
  std::ostringstream report;
  report << "{\"host\": " << host_metadata_json(args.seed, spec->name)
         << ", \"host_steal_share\": " << fmt(steal_share(ticks0, cpu_ticks()))
         << ", \"trace\": " << args.trace << ", \"seconds\": "
         << fmt(args.seconds) << ", \"setup_s\": " << fmt(setup_s)
         << ", \"fixed\": {\"sessions\": " << fixed.sessions
         << ", \"samples\": " << fixed.latency_ms.size()
         << ", \"sent\": " << fixed.acct.sent
         << ", \"served\": " << fixed.acct.served
         << ", \"dropped\": " << fixed.acct.dropped
         << ", \"refused\": " << fixed.acct.refused
         << ", \"shed\": " << fixed.acct.shed
         << ", \"unaccounted\": " << fixed.acct.unaccounted
         << ", \"in_flight_after\": " << fixed.acct.in_flight_after
         << ", \"latency_p90_ms\": " << fmt(fixed.p90_ms)
         << ", \"latency_p99_ms\": " << fmt(fixed.p99_ms)
         << ", \"window_p50_ms\": " << fmt(quantile(fixed.latency_ms, 0.50))
         << ", \"window_p99_ms\": " << fmt(quantile(fixed.latency_ms, 0.99))
         << "}, \"blocks\": {\"block_s\": " << fmt(kBlockS)
         << ", \"steal_share\": " << json_array(fixed.block_steal)
         << ", \"p50_ms\": " << json_array(fixed.block_p50_ms)
         << ", \"p99_ms\": " << json_array(fixed.block_p99_ms)
         << ", \"kept\": [";
  for (std::size_t i = 0; i < fixed.kept.size(); ++i)
    report << (i ? "," : "") << fixed.kept[i];
  report << "]}, \"checks\": {\"pose_tolerance_m\": " << fmt(kPoseTolM)
         << ", \"compared\": " << tally.compared
         << ", \"adapted\": " << tally.adapted
         << ", \"max_err_m\": " << fmt(tally.max_err_m)
         << ", \"late_bound_ms\": " << fmt(kLateBoundMs)
         << ", \"sends\": " << fixed.sends
         << ", \"late_sends\": " << fixed.late_sends
         << ", \"balanced\": " << (tally.balanced ? "true" : "false")
         << ", \"on_time\": " << (tally.on_time ? "true" : "false")
         << "}, \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    report << (i ? ", " : "") << "{\"name\": " << json_quote(metrics[i].name)
           << ", \"value\": " << fmt(metrics[i].value)
           << ", \"unit\": " << json_quote(metrics[i].unit)
           << ", \"moves\": " << json_quote(metrics[i].moves) << "}";
  report << "]";
  if (traced) {
    // The attribution the workloads were chosen for: fc1's share of the
    // batch-16 forward (clouds), DSP time per cube frame against the
    // server's CPU per frame (cubes), and an adaptation round (2 SGD steps
    // on the full buffer) against p99 (adapt).
    report << ", \"attribution\": {\"fc1_share_of_b16_forward\": "
           << fmt(metric_value(metrics, "nn.fc1.b16.ms") /
                  metric_value(metrics, "nn.model.b16.ms"))
           << ", \"dsp_ms_per_cube_frame\": "
           << fmt(metric_value(metrics, "dsp.range_doppler_ms") +
                  metric_value(metrics, "dsp.detect_ms"))
           << ", \"server_cpu_ms_per_frame\": "
           << fmt(fixed.server_cpu_ms_per_frame)
           << ", \"adapt_round_ms\": "
           << fmt(2 * metric_value(metrics, "adapt.sgd_step.b64_ms"))
           << ", \"latency_p90_ms\": " << fmt(fixed.p90_ms)
         << ", \"latency_p99_ms\": " << fmt(fixed.p99_ms) << "}";
  }
  report << ", \"result\": " << result.str() << "}";
  const std::string report_path = args.out_dir + "/" + spec->name + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  std::to_string(args.trace) + ".json";
  if (FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", report.str().c_str());
    std::fclose(f);
  }
  std::printf("%s\n", report.str().c_str());
  std::printf("%s\n", result.str().c_str());
  return tally.correct() ? 0 : 1;
}
