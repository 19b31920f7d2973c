#pragma once
// Host and build metadata recorded with every result, so a number is never
// compared against one from a different machine or build by accident.

#include <cstdint>
#include <string>

namespace perfbench {

/// `s` as a JSON string literal.
std::string json_quote(const std::string& s);

/// JSON object: CPU model, nproc, ISA flags present (avx2, avx512f,
/// avx512_vnni), compiler, flags, build type, source revision and seed.
std::string host_metadata_json(std::uint64_t seed,
                               const std::string& workload);

/// Peak resident set size of this process, MB (getrusage ru_maxrss).
double peak_rss_mb();

/// System-wide CPU tick counters from /proc/stat.
struct CpuTicks {
  std::uint64_t steal = 0;  ///< ticks the hypervisor ran other guests
  std::uint64_t total = 0;
};
CpuTicks cpu_ticks();

/// Share of CPU time stolen by the hypervisor between two readings: how
/// contended the host was during a run (0 on bare metal).
double steal_share(const CpuTicks& from, const CpuTicks& to);

}  // namespace perfbench
