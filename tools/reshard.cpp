// tools/reshard — offline re-shard of a persisted clone-store directory.
//
//   tools/reshard --to <N> [--from <M>] <dir>
//
// Rewrites the clone checkpoints under <dir> from their current M-shard
// layout (autodetected unless --from is given) to an N-shard layout, so
// a server with ServeConfig::num_shards == N can warm-restart from the
// store (serve/reshard.h documents the crash-safe protocol).  The tool
// is restartable: re-running after an interruption resumes the journaled
// migration.  Exit code 0 on success, 1 on a usage error, 2 when the
// migration was interrupted (re-run to resume).

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "serve/reshard.h"

namespace {

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --to <N> [--from <M>] <clone-store-dir>\n"
               "  --to <N>    target shard count (required, >= 1)\n"
               "  --from <M>  source shard count (default: autodetect)\n",
               prog);
}

/// A shard count: decimal digits only.  strtoull alone would accept a
/// sign or leading space and wrap "-1" to 2^64 - 1.
bool parse_count(const char* text, std::size_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0') return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  fuse::serve::ReshardConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto take_value = [&](std::size_t* out) {
      const auto eq = arg.find('=');
      const char* text = nullptr;
      if (eq != std::string::npos)
        text = arg.c_str() + eq + 1;
      else if (i + 1 < argc)
        text = argv[++i];
      return text != nullptr && parse_count(text, out);
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    }
    if (arg.rfind("--to", 0) == 0 && (arg.size() == 4 || arg[4] == '=')) {
      if (!take_value(&cfg.to)) { usage(argv[0]); return 1; }
    } else if (arg.rfind("--from", 0) == 0 &&
               (arg.size() == 6 || arg[6] == '=')) {
      if (!take_value(&cfg.from)) { usage(argv[0]); return 1; }
    } else if (!arg.empty() && arg[0] != '-' && cfg.dir.empty()) {
      cfg.dir = arg;
    } else {
      usage(argv[0]);
      return 1;
    }
  }
  if (cfg.dir.empty() || cfg.to == 0) {
    usage(argv[0]);
    return 1;
  }
  try {
    const auto report = fuse::serve::reshard(cfg);
    std::printf("reshard: %zu -> %zu shards at '%s'%s\n",
                report.from, report.to, cfg.dir.c_str(),
                report.resumed ? " (resumed interrupted run)" : "");
    std::printf("  moved %zu, kept %zu, skipped %zu checkpoint(s)\n",
                report.clones_moved, report.clones_kept, report.skipped);
    return 0;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "reshard: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "reshard: interrupted: %s\n"
                 "the store is still restorable; re-run the same command "
                 "to resume\n",
                 e.what());
    return 2;
  }
}
