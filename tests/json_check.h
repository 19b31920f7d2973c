#pragma once
// Test helper: a strict recursive-descent JSON reader for the documents
// the library and the benches emit.  It checks the RFC 8259 grammar
// (balanced containers, comma and colon placement, string escapes, number
// syntax, no trailing garbage) and collects every scalar by its key path,
// e.g. "per_shard[1].queue_depth_series[0]" -> "7", as the raw token, so
// a test can read a number back with strtod or compare a string with its
// quotes.  Shared by test_util (the writer) and test_serve (the stats
// export).

#include <cctype>
#include <cstddef>
#include <map>
#include <string>

namespace fuse::test {

struct JsonScan {
  /// Offset of the first syntax error; npos when the document is valid.
  std::size_t error = std::string::npos;
  /// Every scalar leaf by key path, as its raw token.
  std::map<std::string, std::string> leaves;

  bool ok() const { return error == std::string::npos; }
};

namespace detail {

class JsonScanner {
 public:
  explicit JsonScanner(const std::string& s) : s_(s) {}

  JsonScan run() {
    JsonScan out;
    leaves_ = &out.leaves;
    if (!value("") || (skip_ws(), i_ != s_.size())) out.error = i_;
    return out;
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\t' || s_[i_] == '\r'))
      ++i_;
  }
  bool at(char c) const { return i_ < s_.size() && s_[i_] == c; }
  bool digit() const {
    return i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]));
  }

  bool value(const std::string& path) {
    skip_ws();
    if (i_ >= s_.size()) return false;
    const std::size_t start = i_;
    bool ok = false;
    switch (s_[i_]) {
      case '{': return object(path);
      case '[': return array(path);
      case '"': ok = string(); break;
      case 't': ok = literal("true"); break;
      case 'f': ok = literal("false"); break;
      case 'n': ok = literal("null"); break;
      default: ok = number();
    }
    if (ok) (*leaves_)[path] = s_.substr(start, i_ - start);
    return ok;
  }

  bool object(const std::string& path) {
    ++i_;
    skip_ws();
    if (at('}')) return ++i_, true;
    while (true) {
      skip_ws();
      const std::size_t start = i_;
      if (!at('"') || !string()) return false;
      const std::string key = s_.substr(start + 1, i_ - start - 2);
      skip_ws();
      if (!at(':')) return false;
      ++i_;
      if (!value(path.empty() ? key : path + "." + key)) return false;
      skip_ws();
      if (at('}')) return ++i_, true;
      if (!at(',')) return false;
      ++i_;
    }
  }

  bool array(const std::string& path) {
    ++i_;
    skip_ws();
    if (at(']')) return ++i_, true;
    for (std::size_t n = 0;; ++n) {
      if (!value(path + "[" + std::to_string(n) + "]")) return false;
      skip_ws();
      if (at(']')) return ++i_, true;
      if (!at(',')) return false;
      ++i_;
    }
  }

  bool string() {
    for (++i_; i_ < s_.size(); ++i_) {
      const auto c = static_cast<unsigned char>(s_[i_]);
      if (c == '"') return ++i_, true;
      if (c < 0x20) return false;  // control characters must be escaped
      if (c != '\\') continue;
      if (++i_ >= s_.size()) return false;
      if (s_[i_] == 'u') {
        for (int k = 0; k < 4; ++k)
          if (++i_ >= s_.size() ||
              !std::isxdigit(static_cast<unsigned char>(s_[i_])))
            return false;
      } else if (std::string("\"\\/bfnrt").find(s_[i_]) ==
                 std::string::npos) {
        return false;
      }
    }
    return false;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  bool number() {
    if (at('-')) ++i_;
    if (at('0')) {
      ++i_;
    } else {
      if (!digit()) return false;
      while (digit()) ++i_;
    }
    if (at('.')) {
      ++i_;
      if (!digit()) return false;
      while (digit()) ++i_;
    }
    if (at('e') || at('E')) {
      ++i_;
      if (at('+') || at('-')) ++i_;
      if (!digit()) return false;
      while (digit()) ++i_;
    }
    return true;
  }

  const std::string& s_;
  std::size_t i_ = 0;
  std::map<std::string, std::string>* leaves_ = nullptr;
};

}  // namespace detail

/// Validates `s` as one JSON document and collects its scalar leaves.
inline JsonScan scan_json(const std::string& s) {
  return detail::JsonScanner(s).run();
}

}  // namespace fuse::test
