#pragma once
// Deterministic fault injection for the serving plane's chaos tests.
//
// Each injection point (disk write error, torn write, corrupt input, ...)
// is a named site in production code that asks `fault_fire(point)` whether
// this occurrence should fail.  The decision is a pure function of
// (seed, point, occurrence index): a per-point atomic counter indexes a
// splitmix64 stream, so a chaos run with a fixed seed injects the same
// NUMBER of faults at the same per-point occurrence indices on every
// machine and every repetition — no wall clock, no global RNG state that
// thread interleaving could perturb.
//
// Every build compiles the sites in, disarmed until fault_configure()
// arms them, so production, ordinary tests and benches never pay more
// than one relaxed atomic load per site.
//
// Production code NEVER changes behaviour based on the config beyond the
// injected failure itself: a fired kDiskWrite point throws the same
// std::runtime_error a real failed write would, a fired kTornWrite
// truncates the bytes a real power loss would, and the recovery paths
// under test cannot tell the difference.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace fuse::util {

/// The injection-point taxonomy.  Sites live in nn/module.cpp and
/// util/atomic_file.h (checkpoint and manifest disk I/O),
/// serve/clone_store/layout (torn shard map), serve/shard (input
/// corruption, latency spikes), serve/server (live migration) and
/// serve/reshard (offline re-shard).
enum class FaultPoint : std::size_t {
  kDiskWrite = 0,    ///< checkpoint/manifest write throws (ENOSPC, EIO, ...)
  kTornWrite,        ///< write persists only a prefix (crash mid-write)
  kDiskRead,         ///< checkpoint/manifest read throws
  kCorruptCloud,     ///< NaN/Inf poked into a submitted point cloud
  kCorruptCube,      ///< NaN/Inf poked into a submitted raw radar cube
  kCorruptLabel,     ///< NaN/Inf poked into a submitted ground-truth label
  kLatencySpike,     ///< scheduler stage stalls for spike_ms
  kMigrationKill,    ///< live migration / re-shard killed mid-move
  kTornShardMap,     ///< re-shard journal (shard map) write torn on disk
  kTargetShardCrash, ///< target shard crashes while adopting a session
  kMigrationOom,     ///< live migration of a head throws std::bad_alloc
};
inline constexpr std::size_t kNumFaultPoints = 11;

const char* fault_point_name(FaultPoint p);

struct FaultConfig {
  std::uint64_t seed = 0;
  /// Per-point firing probability in [0, 1]; 0 disables the point.
  std::array<double, kNumFaultPoints> probability{};
  /// Stall injected by a fired kLatencySpike, milliseconds.
  double spike_ms = 2.0;

  double& p(FaultPoint pt) { return probability[static_cast<std::size_t>(pt)]; }
};

namespace fault_detail {
struct State {
  std::atomic<bool> enabled{false};
  std::uint64_t seed = 0;
  std::array<double, kNumFaultPoints> probability{};
  double spike_ms = 2.0;
  std::array<std::atomic<std::uint64_t>, kNumFaultPoints> occurrences{};
  std::array<std::atomic<std::uint64_t>, kNumFaultPoints> fired{};
};
State& state();
bool fire_slow(FaultPoint p);
}  // namespace fault_detail

/// Arms the layer with `cfg` and zeroes the occurrence/fired counters.
/// NOT thread-safe against concurrent fault_fire callers — configure
/// before starting the server under test (the same single-writer contract
/// every test honours for ServeConfig).
void fault_configure(const FaultConfig& cfg);

/// Disarms the layer and zeroes all counters (RAII-pair of configure;
/// tests call this in teardown so fault state never leaks across cases).
void fault_reset();

/// True when the layer is armed (one relaxed load; the only cost a
/// production site pays when no chaos test is running).
inline bool fault_active() {
  return fault_detail::state().enabled.load(std::memory_order_relaxed);
}

/// Should this occurrence of `p` inject its failure?  Deterministic per
/// (seed, point, occurrence index); counts occurrences and firings.
inline bool fault_fire(FaultPoint p) {
  if (!fault_active()) return false;
  return fault_detail::fire_slow(p);
}

/// Times the point fired since fault_configure (test assertions).
std::uint64_t fault_fired(FaultPoint p);
/// Times the point was consulted since fault_configure.
std::uint64_t fault_occurrences(FaultPoint p);
/// Configured latency-spike stall in seconds.
double fault_spike_seconds();

/// Scoped arm/disarm for tests: configures on construction, resets on
/// destruction, so an ASSERT failure mid-test cannot leak an armed fault
/// layer into the next test case.
class ScopedFaults {
 public:
  explicit ScopedFaults(const FaultConfig& cfg) { fault_configure(cfg); }
  ~ScopedFaults() { fault_reset(); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
};

}  // namespace fuse::util
