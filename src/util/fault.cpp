#include "util/fault.h"

namespace fuse::util {

const char* fault_point_name(FaultPoint p) {
  switch (p) {
    case FaultPoint::kDiskWrite: return "disk_write";
    case FaultPoint::kTornWrite: return "torn_write";
    case FaultPoint::kDiskRead: return "disk_read";
    case FaultPoint::kCorruptCloud: return "corrupt_cloud";
    case FaultPoint::kCorruptCube: return "corrupt_cube";
    case FaultPoint::kCorruptLabel: return "corrupt_label";
    case FaultPoint::kLatencySpike: return "latency_spike";
    case FaultPoint::kMigrationKill: return "migration_kill";
    case FaultPoint::kTargetShardCrash: return "target_shard_crash";
    case FaultPoint::kMigrationOom: return "migration_oom";
  }
  return "?";
}

namespace fault_detail {

State& state() {
  static State s;
  return s;
}

namespace {
/// splitmix64: the (seed, point, occurrence) triple is hashed through two
/// rounds so neighbouring occurrence indices decorrelate fully.  Chosen
/// over a stateful RNG so the decision for occurrence N never depends on
/// which thread consulted occurrences 0..N-1 first.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

bool fire_slow(FaultPoint p) {
  State& s = state();
  const auto i = static_cast<std::size_t>(p);
  const double prob = s.probability[i];
  const std::uint64_t n =
      s.occurrences[i].fetch_add(1, std::memory_order_relaxed);
  if (prob <= 0.0) return false;
  // Map the hash to [0, 1): 53 mantissa bits are plenty of resolution for
  // test probabilities.
  const std::uint64_t h = mix64(mix64(s.seed + (i << 56)) + n);
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^-53
  const bool fire = u < prob;
  if (fire) s.fired[i].fetch_add(1, std::memory_order_relaxed);
  return fire;
}

}  // namespace fault_detail

void fault_configure(const FaultConfig& cfg) {
  auto& s = fault_detail::state();
  s.enabled.store(false, std::memory_order_relaxed);
  s.seed = cfg.seed;
  s.probability = cfg.probability;
  s.spike_ms = cfg.spike_ms;
  for (auto& c : s.occurrences) c.store(0, std::memory_order_relaxed);
  for (auto& c : s.fired) c.store(0, std::memory_order_relaxed);
  s.enabled.store(true, std::memory_order_release);
}

void fault_reset() {
  auto& s = fault_detail::state();
  s.enabled.store(false, std::memory_order_relaxed);
  for (auto& c : s.occurrences) c.store(0, std::memory_order_relaxed);
  for (auto& c : s.fired) c.store(0, std::memory_order_relaxed);
}

std::uint64_t fault_fired(FaultPoint p) {
  return fault_detail::state()
      .fired[static_cast<std::size_t>(p)]
      .load(std::memory_order_relaxed);
}

std::uint64_t fault_occurrences(FaultPoint p) {
  return fault_detail::state()
      .occurrences[static_cast<std::size_t>(p)]
      .load(std::memory_order_relaxed);
}

double fault_spike_seconds() {
  return fault_detail::state().spike_ms * 1e-3;
}

}  // namespace fuse::util
