#pragma once
// Single-threaded open-loop load generator.  Every session submits one
// frame per radar frame period on a fixed schedule (per-session phases are
// spread evenly over the period), whether or not earlier frames
// have been served, so a slow server builds a queue instead of receiving
// less load.  Latency is taken from each frame's *scheduled* send time to
// PoseResult::t_ready, so a stall on either side counts against the
// frames it delays (no coordinated omission).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "checks.h"
#include "host.h"
#include "serve/server.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {

class LoadGen {
 public:
  /// `ids` are open sessions of `server`; session s < `adapting` sends
  /// labels.
  LoadGen(fuse::serve::Server& server, const Workload& workload,
          std::vector<fuse::serve::SessionId> ids, std::size_t adapting);

  /// The set-up's warm-up: fills every session's fusion window (and each
  /// adapting session's adaptation buffer) and waits until every frame is
  /// served; false on timeout.
  bool warm_up(double timeout_s);

  /// Runs the open-loop schedule for `seconds`, starting one period from
  /// now; returns the scheduled start time.  With a `tracer`, frames
  /// scheduled in every other kTraceBlockS block get submit, poll and
  /// result spans (FrameRecord::traced), so traced and untraced frames
  /// share one run and its host conditions.
  double run(double seconds, Tracer* tracer = nullptr);
  static constexpr double kTraceBlockS = 1.0;

  /// Counters read by run() at the start of each period (round r of the
  /// schedule is samples()[r]) and once more at its end.
  struct Sample {
    CpuTicks host;             ///< system-wide ticks, for steal
    double process_cpu_s = 0;  ///< whole process
    double generator_cpu_s = 0;  ///< the generator thread
  };
  const std::vector<Sample>& samples() const { return samples_; }

  /// Stops sending and polls until every accepted frame is served or was
  /// dropped/shed by the server, or `timeout_s` passes.
  void close_out(double timeout_s);

  std::vector<FrameRecord>& frames() { return frames_; }
  const std::vector<FrameRecord>& frames() const { return frames_; }
  /// Counts read from Server::stats() (call after close_out).
  ServerCounts server_counts() const;
  std::vector<bool> adapting_mask() const;

  /// Poll-call durations (seconds).
  const std::vector<double>& poll_s() const { return poll_s_; }

 private:
  void poll(std::size_t s);
  /// Session indices sorted by send phase.
  std::vector<std::size_t> phase_order() const;
  void send(std::size_t s, double t_sched);

  fuse::serve::Server& server_;
  const Workload& workload_;
  std::vector<fuse::serve::SessionId> ids_;
  std::size_t adapting_;
  std::size_t accepted_ = 0, served_ = 0;  ///< running counts
  Tracer* tracer_ = nullptr;
  bool tracing_ = false;  ///< the current send falls in a traced block
  std::vector<double> phase_;                ///< per session, in [0, 1)
  std::vector<std::uint32_t> next_k_;        ///< per session frame counter
  std::vector<std::vector<std::size_t>> by_seq_;  ///< seq -> frames_ index
  std::vector<FrameRecord> frames_;
  std::vector<double> poll_s_;
  std::vector<Sample> samples_;
};

/// Runs a server in synchronous mode on one thread of its own: a loop of
/// Server::run_once() passes, sleeping kIdleSleepS after a pass that
/// served nothing.  The thread is a ThreadPool worker, so the kernels a
/// pass runs stay on it instead of fanning out to the global pool: the
/// server is one thread beside the generator's, on any host.
class SyncDriver {
 public:
  explicit SyncDriver(fuse::serve::Server& server);
  /// Stops the loop and waits for its last pass.
  ~SyncDriver();
  SyncDriver(const SyncDriver&) = delete;
  SyncDriver& operator=(const SyncDriver&) = delete;

  static constexpr double kIdleSleepS = 200e-6;

 private:
  std::atomic<bool> running_{true};
  fuse::util::ThreadPool thread_{1};
};

/// Thread CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID).
double thread_cpu_s();
/// CPU time of the whole process (CLOCK_PROCESS_CPUTIME_ID).
double process_cpu_s();

}  // namespace perfbench
