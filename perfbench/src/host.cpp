#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  return "";
}

bool has_flag(const std::string& flags, const std::string& flag) {
  std::istringstream in(flags);
  std::string f;
  while (in >> f)
    if (f == flag) return true;
  return false;
}

}  // namespace

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string host_metadata_json(std::uint64_t seed,
                               const std::string& workload) {
  const std::string flags = cpuinfo_field("flags");
  const char* rev = std::getenv("PERFBENCH_SOURCE_REV");  // set by run.py
  std::ostringstream o;
  o << "{\"cpu_model\":" << json_quote(cpuinfo_field("model name"))
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"isa\":{";
  const char* isa[] = {"avx2", "avx512f", "avx512_vnni"};
  for (int i = 0; i < 3; ++i)
    o << (i ? "," : "") << "\"" << isa[i]
      << "\":" << (has_flag(flags, isa[i]) ? "true" : "false");
  o << "},\"compiler\":" << json_quote(__VERSION__)
    << ",\"cxx_flags\":" << json_quote(PERFBENCH_CXX_FLAGS)
    << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
    << ",\"source_rev\":" << json_quote(rev ? rev : "unknown")
    << ",\"workload\":" << json_quote(workload) << ",\"seed\":" << seed
    << "}";
  return o.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line comes first
  CpuTicks t;
  std::uint64_t v = 0;
  for (int field = 0; field < 10 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const auto total = to.total - from.total;
  return total ? static_cast<double>(to.steal - from.steal) /
                     static_cast<double>(total)
               : 0.0;
}

}  // namespace perfbench
