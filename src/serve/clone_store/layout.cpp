#include "serve/clone_store/layout.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "util/atomic_file.h"
#include "util/fault.h"

namespace fuse::serve::layout {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestMagic = "FUSECLONES1";
constexpr const char* kShardMapMagic = "FUSESHMAP1";
constexpr const char* kJournalMagic = "FUSERESHARD1";
constexpr const char* kEnd = "end";
constexpr const char* kClonePrefix = "clone_";
constexpr const char* kCloneSuffix = ".delta";
constexpr const char* kShardPrefix = "shard_";

/// `[<key> ]<count> ...`: exactly `n` space-separated unsigned decimals,
/// after the literal `key` when one is given.  std::from_chars takes no
/// sign, so "-1" is rejected, not wrapped.
bool parse_row(std::string_view line, std::string_view key, std::size_t n,
               std::size_t* out) {
  if (!line.starts_with(key)) return false;
  line.remove_prefix(key.size());
  const char* p = line.data();
  const char* last = line.data() + line.size();
  for (std::size_t i = 0; i < n; ++i) {
    if ((i > 0 || !key.empty()) && (p == last || *p++ != ' ')) return false;
    const auto [end, ec] = std::from_chars(p, last, out[i]);
    if (ec != std::errc()) return false;
    p = end;
  }
  return p == last;
}

/// `<prefix><count><suffix>`, nothing else.
bool parse_numbered(std::string_view name, std::string_view prefix,
                    std::string_view suffix, std::size_t* out) {
  if (name.size() <= prefix.size() + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix))
    return false;
  name.remove_prefix(prefix.size());
  name.remove_suffix(suffix.size());
  return parse_row(name, "", 1, out);
}

/// The one reader: the lines between the magic line and the `end` line.
/// `body` is filled only when the status is kValid.
FileStatus read_records(const std::string& path, const char* magic,
                        std::vector<std::string>* body) {
  std::ifstream in(path);
  if (!in.is_open()) return FileStatus::kMissing;
  std::string line;
  if (!std::getline(in, line) || line != magic) return FileStatus::kInvalid;
  std::vector<std::string> lines;
  while (std::getline(in, line) && line != kEnd) lines.push_back(line);
  // Complete only with the `end` line present and nothing after it.
  if (line != kEnd || in.peek() != std::ifstream::traits_type::eof())
    return FileStatus::kInvalid;
  *body = std::move(lines);
  return FileStatus::kValid;
}

/// The one writer: magic, `lines`, `end`.
void write_records(const std::string& path, const char* magic,
                   const std::vector<std::string>& lines,
                   bool torn_fault_site) {
  std::string payload = std::string(magic) + "\n";
  for (const auto& line : lines) payload += line + "\n";
  payload += std::string(kEnd) + "\n";
  if (torn_fault_site &&
      fuse::util::fault_fire(fuse::util::FaultPoint::kTornShardMap)) {
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(payload.data(),
               static_cast<std::streamsize>(payload.size() / 2));
    throw std::runtime_error("injected crash — torn write at " + path);
  }
  fuse::util::write_file_atomic(path, payload);
}

}  // namespace

std::string shard_dir(const std::string& root, std::size_t k,
                      std::size_t shards) {
  if (shards <= 1) return root;
  return root + "/" + kShardPrefix + std::to_string(k);
}

std::string clone_path(const std::string& dir, SessionId id) {
  return dir + "/" + kClonePrefix + std::to_string(id) + kCloneSuffix;
}

std::string manifest_path(const std::string& dir) {
  return dir + "/clones.manifest";
}

std::string map_path(const std::string& root) {
  return root + "/shard_map";
}

std::string journal_path(const std::string& root) {
  return root + "/reshard.journal";
}

bool checkpoint_decodes(const std::string& path,
                        const fuse::nn::Module* base) {
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
        parse_numbered(e.path().filename().string(), kClonePrefix,
                       kCloneSuffix, &id))
      ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool has_store_data(const std::string& dir) {
  return fs::exists(manifest_path(dir)) || !scan_clone_ids(dir).empty();
}

std::vector<std::size_t> shards_with_data(const std::string& root) {
  std::vector<std::size_t> out;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(root, ec)) {
    std::size_t k = 0;
    if (e.is_directory() &&
        parse_numbered(e.path().filename().string(), kShardPrefix, "", &k) &&
        has_store_data(e.path().string()))
      out.push_back(k);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Manifest read_manifest(const std::string& dir) {
  Manifest m;
  std::vector<std::string> body;
  m.status = read_records(manifest_path(dir), kManifestMagic, &body);
  for (const auto& line : body) {
    SessionId id = 0;
    if (!parse_row(line, "", 1, &id)) return {FileStatus::kInvalid, {}};
    m.ids.push_back(id);
  }
  return m;
}

ShardMap read_map(const std::string& root) {
  ShardMap map;
  std::vector<std::string> body;
  map.status = read_records(map_path(root), kShardMapMagic, &body);
  if (map.status != FileStatus::kValid) return map;
  if (body.empty() || !parse_row(body[0], "shards", 1, &map.shards) ||
      map.shards == 0)
    return {FileStatus::kInvalid, 0, {}};
  for (std::size_t i = 1; i < body.size(); ++i) {
    std::size_t f[2];
    if (!parse_row(body[i], "", 2, f) || f[1] >= map.shards)
      return {FileStatus::kInvalid, 0, {}};
    map.pins[f[0]] = f[1];
  }
  return map;
}

Journal read_journal(const std::string& root) {
  Journal j;
  std::vector<std::string> body;
  j.status = read_records(journal_path(root), kJournalMagic, &body);
  if (j.status != FileStatus::kValid) return j;
  if (body.size() < 3 || !parse_row(body[0], "from", 1, &j.from) ||
      !parse_row(body[1], "to", 1, &j.to) || j.from == 0 || j.to == 0 ||
      (body[2] != "phase plan" && body[2] != "phase copied"))
    return {FileStatus::kInvalid, Journal::Phase::kPlan, 0, 0, {}};
  j.phase = body[2] == "phase plan" ? Journal::Phase::kPlan
                                    : Journal::Phase::kCopied;
  for (std::size_t i = 3; i < body.size(); ++i) {
    std::size_t f[3];
    if (!parse_row(body[i], "", 3, f) || f[1] >= j.from || f[2] >= j.to)
      return {FileStatus::kInvalid, Journal::Phase::kPlan, 0, 0, {}};
    j.moves.push_back(Move{f[0], f[1], f[2]});
  }
  return j;
}

void write_manifest(const std::string& dir, std::vector<SessionId> ids) {
  std::sort(ids.begin(), ids.end());
  std::vector<std::string> lines;
  for (const SessionId id : ids) lines.push_back(std::to_string(id));
  write_records(manifest_path(dir), kManifestMagic, lines, false);
}

void write_map(const std::string& root, const ShardMap& map,
               bool torn_fault_site) {
  std::vector<std::string> lines{"shards " + std::to_string(map.shards)};
  for (const auto& [id, shard] : map.pins)
    lines.push_back(std::to_string(id) + " " + std::to_string(shard));
  write_records(map_path(root), kShardMapMagic, lines, torn_fault_site);
}

void write_journal(const std::string& root, const Journal& j) {
  std::vector<std::string> lines{
      "from " + std::to_string(j.from), "to " + std::to_string(j.to),
      j.phase == Journal::Phase::kPlan ? "phase plan" : "phase copied"};
  for (const auto& m : j.moves)
    lines.push_back(std::to_string(m.id) + " " + std::to_string(m.src) +
                    " " + std::to_string(m.dst));
  write_records(journal_path(root), kJournalMagic, lines, true);
}

}  // namespace fuse::serve::layout
