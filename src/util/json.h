#pragma once
// The one JSON writer: stats_json(), SERVE_stats.json and the BENCH_*.json
// files are all built through it, so commas, nesting, quoting and number
// formats live here and nowhere else.  Integers stay JSON integers; float
// and double take the shortest form that reads back to the same value at
// their own width, always with a '.' or an exponent; NaN and +-Inf become
// null; strings are escaped per RFC 8259 (DESIGN.md section 7).  Layout is
// fixed: each member of an object or array takes its own line, except in
// a row (a container that is an array element), which stays on one line,
// so committed documents diff row by row.

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace fuse::util {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open(true); }
  JsonWriter& end_object() { return close(true); }
  JsonWriter& begin_array() { return open(false); }
  JsonWriter& end_array() { return close(false); }
  /// Names the next value or container; only valid directly in an object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s) {
    before_value();
    quote(s);
    return *this;
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return token(b ? "true" : "false"); }
  JsonWriter& value(double d);
  JsonWriter& value(float f);
  template <std::integral T>
  JsonWriter& value(T v) {
    char buf[24];
    return token({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
  }

  /// key(name).value(v).
  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  /// The document so far; ends in a newline once the root is closed.
  const std::string& str() const { return out_; }

 private:
  struct Frame {
    bool object;
    bool multiline;
    std::size_t members = 0;
  };

  /// The separator before a member of the current container.
  void next_member();
  /// Places a value: right after its key, or as the next array member.
  /// Throws std::logic_error when the value has no valid place.
  void before_value();
  JsonWriter& token(std::string_view text);
  template <typename F>
  JsonWriter& real(F v);
  JsonWriter& open(bool object);
  JsonWriter& close(bool object);
  void quote(std::string_view s);

  std::string out_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
};

}  // namespace fuse::util
