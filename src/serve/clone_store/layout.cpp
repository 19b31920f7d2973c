#include "serve/clone_store/layout.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <string_view>

namespace fuse::serve::layout {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kClonePrefix = "clone_";
constexpr std::string_view kCloneSuffix = ".delta";

/// `clone_<id>.delta`, nothing else.  std::from_chars takes no sign, so
/// "clone_-1.delta" is rejected, not wrapped.
bool parse_clone_name(std::string_view name, SessionId* id) {
  if (name.size() <= kClonePrefix.size() + kCloneSuffix.size() ||
      !name.starts_with(kClonePrefix) || !name.ends_with(kCloneSuffix))
    return false;
  name.remove_prefix(kClonePrefix.size());
  name.remove_suffix(kCloneSuffix.size());
  const char* last = name.data() + name.size();
  const auto [end, ec] = std::from_chars(name.data(), last, *id);
  return ec == std::errc() && end == last;
}

}  // namespace

std::string clone_path(const std::string& dir, SessionId id) {
  return dir + "/" + std::string(kClonePrefix) + std::to_string(id) +
         std::string(kCloneSuffix);
}

bool checkpoint_decodes(const std::string& path,
                        const fuse::nn::Module& base) {
  try {
    (void)fuse::nn::read_checkpoint_file(path, base);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::vector<SessionId> scan_clone_ids(const std::string& dir) {
  std::vector<SessionId> ids;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    SessionId id = 0;
    if (e.is_regular_file() &&
        parse_clone_name(e.path().filename().string(), &id))
      ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace fuse::serve::layout
