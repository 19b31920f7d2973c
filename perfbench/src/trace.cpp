#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

Tracer::Tracer() { spans_.reserve(1 << 16); }

void Tracer::span(const char* name, Track track, double t0, double t1,
                  std::int64_t frame_session, std::uint64_t frame_seq) {
  spans_.push_back({name, track, t0, t1, frame_session, frame_seq});
}

const char* Tracer::intern(const std::string& name) {
  for (const auto& n : names_)
    if (n == name) return n.c_str();
  return names_.emplace_back(name).c_str();
}

bool Tracer::write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double origin = 0.0;
  if (!spans_.empty()) {
    origin = spans_.front().t0;
    for (const auto& s : spans_) origin = std::min(origin, s.t0);
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  static const char* const kTrackNames[] = {"loadgen", "server (result)",
                                            "replay"};
  for (std::uint32_t t = 0; t < 3; ++t)
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}\n",
                 t == 0 ? "" : ",", t, kTrackNames[t]);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f",
                 s.name, static_cast<unsigned>(s.track),
                 (s.t0 - origin) * 1e6, (s.t1 - s.t0) * 1e6);
    if (s.session >= 0)
      std::fprintf(f, ",\"args\":{\"frame\":\"%lld:%llu\"}",
                   static_cast<long long>(s.session),
                   static_cast<unsigned long long>(s.seq));
    std::fputs("}\n", f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
