#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace fuse::util {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::logic_error(std::string("JsonWriter: ") + what);
}

}  // namespace

void JsonWriter::next_member() {
  Frame& top = stack_.back();
  if (top.members++ > 0) out_ += top.multiline ? "," : ", ";
  if (top.multiline) out_.append("\n").append(2 * stack_.size(), ' ');
}

void JsonWriter::before_value() {
  if (std::exchange(after_key_, false)) return;
  require(stack_.empty() ? out_.empty() : !stack_.back().object,
          "a second root value or an object member without a key");
  if (!stack_.empty()) next_member();
}

JsonWriter& JsonWriter::key(std::string_view name) {
  require(!stack_.empty() && stack_.back().object && !after_key_,
          "a key outside an object");
  next_member();
  quote(name);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::open(bool object) {
  before_value();
  // A row (a container inside an array) and all it holds stay on one line.
  stack_.push_back(
      {object, stack_.empty() || (stack_.back().multiline &&
                                  stack_.back().object)});
  out_ += object ? '{' : '[';
  return *this;
}

JsonWriter& JsonWriter::close(bool object) {
  require(!stack_.empty() && stack_.back().object == object && !after_key_,
          "an unbalanced close");
  const Frame top = stack_.back();
  stack_.pop_back();
  if (top.multiline && top.members > 0)
    out_.append("\n").append(2 * stack_.size(), ' ');
  out_ += object ? '}' : ']';
  if (stack_.empty()) out_ += '\n';
  return *this;
}

void JsonWriter::quote(std::string_view s) {
  out_ += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out_.append(1, '\\').append(1, c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::token(std::string_view text) {
  before_value();
  out_ += text;
  return *this;
}

template <typename F>
JsonWriter& JsonWriter::real(F v) {
  if (!std::isfinite(v)) return token("null");
  char buf[32];  // the longest shortest-form double is 24 characters
  const std::string_view digits(buf,
                                std::to_chars(buf, buf + sizeof buf, v).ptr);
  token(digits);
  if (digits.find_first_of(".e") == std::string_view::npos) out_ += ".0";
  return *this;
}

JsonWriter& JsonWriter::value(double d) { return real(d); }
JsonWriter& JsonWriter::value(float f) { return real(f); }

}  // namespace fuse::util
