#pragma once
// In-memory span recorder for the traced run.  Spans are appended to a
// pre-reserved vector while the benchmark runs and written once, at the
// end, as Chrome trace-event JSON (viewable in Perfetto or
// chrome://tracing).  Frame spans carry the frame id "session:seq" in
// their args, so a frame's submit and result spans pair up.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

/// Trace rows ("threads" in the viewer).
enum class Track : std::uint32_t {
  kLoadgen = 0,  ///< submit / poll calls on the generator thread
  kServer = 1,   ///< result spans: submit returned -> PoseResult::t_ready
  kReplay = 2,   ///< per-layer replay calls
};

class Tracer {
 public:
  Tracer();

  /// Records a span [t0, t1] (mono seconds).  `name` must outlive the
  /// tracer (a literal or intern()).  `frame_session` < 0 means the span
  /// belongs to no frame.
  void span(const char* name, Track track, double t0, double t1,
            std::int64_t frame_session = -1, std::uint64_t frame_seq = 0);

  /// Stable storage for a span name built at run time.
  const char* intern(const std::string& name);

  std::size_t size() const { return spans_.size(); }

  /// Writes every span as Chrome trace-event JSON; false on I/O error.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;  ///< literal or interned
    Track track;
    double t0, t1;
    std::int64_t session;
    std::uint64_t seq;
  };
  std::vector<Span> spans_;
  std::deque<std::string> names_;
};

}  // namespace perfbench
