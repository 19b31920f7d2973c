#pragma once
// Correctness checks applied to every benchmark run.  They are pure
// functions over what the load generator recorded, so the benchmark's own
// tests can feed them injected faults (tests/checks_test.cpp).
//
//  * Output check: every served pose of a session that serves the shared
//    model equals an offline batch-1 reference for the same fused window,
//    within kPoseTolM.  Adapted sessions' poses must be finite and, once a
//    result is flagged adapted_model, every later one must be too.
//  * Frame accounting: each sent frame ends as exactly one of served,
//    dropped (queue policy), refused (SubmitResult) or shed (deadline),
//    and the server's in-flight gauge reads 0 after close-out.
//  * Generator guard: a run whose generator ran later than kLateBoundMs at
//    p99 is invalid (it could otherwise make a stalled client look like a
//    fast server).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "human/skeleton.h"

namespace perfbench {

/// Largest per-coordinate difference (metres) accepted between a served
/// pose and its batch-1 reference.  Batched and batch-1 GEMM forwards sum
/// in different orders, so they agree to float rounding (~1e-6 m), not
/// bit for bit; 1e-4 m (0.1 mm) is 100x that and 1000x below the MAE.
constexpr double kPoseTolM = 1e-4;

/// Generator lateness bound: p99 of (actual send - scheduled send), a
/// fifth of the frame period.
constexpr double kLateBoundMs = 20.0;

/// One frame the generator sent, and what became of it.
struct FrameRecord {
  std::uint32_t session = 0;  ///< index into the run's session list
  std::uint32_t input = 0;    ///< workload input id (cloud / cube)
  std::uint32_t k = 0;        ///< per-session frame number (trace id)
  bool accepted = false;      ///< SubmitResult accepted()
  std::uint64_t seq = 0;      ///< server sequence number, when accepted
  double t_sched = 0.0;       ///< scheduled send (mono seconds)
  double t_sent = 0.0;        ///< submit call returned
  double submit_s = 0.0;      ///< submit call duration
  bool traced = false;        ///< sent inside a traced block
  // Filled from the session's polled PoseResult:
  bool served = false;
  bool adapted_model = false;
  double t_ready = 0.0;
  fuse::human::Pose raw;
};

/// Server-side counts read from Server::stats() after close-out.
struct ServerCounts {
  std::uint64_t dropped = 0;  ///< queue_evicted (kDropOldest)
  std::uint64_t shed = 0;     ///< deadline_shed
  std::size_t in_flight = 0;  ///< gauge after close-out
};

struct Accounting {
  std::uint64_t sent = 0;
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;
  std::uint64_t refused = 0;
  std::uint64_t shed = 0;
  /// sent - (served + dropped + refused + shed); non-zero is a failure.
  std::int64_t unaccounted = 0;
  std::size_t in_flight_after = 0;
  std::uint64_t lost() const {
    return dropped + refused + shed +
           static_cast<std::uint64_t>(unaccounted > 0 ? unaccounted : 0);
  }
  bool balanced() const { return unaccounted == 0 && in_flight_after == 0; }
};

Accounting account_frames(const std::vector<FrameRecord>& frames,
                          const ServerCounts& counts);

/// Reference pose for a fused window of workload inputs (oldest first).
using ReferenceFn =
    std::function<fuse::human::Pose(const std::vector<std::uint32_t>&)>;

struct OutputCheck {
  std::uint64_t compared = 0;    ///< shared-model poses checked vs reference
  std::uint64_t mismatched = 0;  ///< beyond kPoseTolM
  std::uint64_t adapted = 0;     ///< poses served by an adapted clone
  std::uint64_t non_finite = 0;  ///< adapted poses with NaN/Inf
  std::uint64_t flag_errors = 0; ///< adapted_model flag out of order
  double max_err_m = 0.0;
  std::uint64_t failures() const {
    return mismatched + non_finite + flag_errors;
  }
};

/// Checks every served frame.  `adapting[s]` says whether session s may be
/// served by an adapted clone; `window_frames` is the fusion window (2M+1).
/// A served frame's window is the session's last `window_frames` served
/// frames (dropped or shed frames never enter the server's window).
OutputCheck check_outputs(const std::vector<FrameRecord>& frames,
                          const std::vector<bool>& adapting,
                          std::size_t window_frames,
                          const ReferenceFn& reference);

bool poses_match(const fuse::human::Pose& a, const fuse::human::Pose& b,
                 double tol_m, double* max_err_m = nullptr);

/// Generator guard (see kLateBoundMs).
bool generator_valid(double late_p99_ms);

/// Quantile of `v` (sorted copy, linear interpolation); 0 when empty.
double quantile(std::vector<double> v, double q);

/// The quieter half of a window's blocks: the indices of the ceil(n / 2)
/// blocks with the lowest hypervisor steal share (earlier block first on a
/// tie), in ascending order.  Timings are taken from these blocks only, so
/// a burst of neighbours' load on a shared host does not become a result.
std::vector<std::size_t> quiet_half(const std::vector<double>& steal);

}  // namespace perfbench
