#pragma once
// Crash-consistent file replacement: write to a sibling ".tmp", flush,
// then rename over the destination.  POSIX rename is atomic within a
// filesystem, so a reader (or a process restarted after a crash) only
// ever sees the complete old file or the complete new file — never a
// half-written one.  A crash between flush and rename leaves a stale
// ".tmp" behind, which the next successful write simply overwrites.
//
// The two fault-injection points model what this scheme defends against
// and what it cannot:
//  * kDiskWrite — the write itself fails (ENOSPC, EIO); surfaces as the
//    same std::runtime_error a real stream failure produces, BEFORE the
//    rename, so the destination is untouched;
//  * kTornWrite — only a prefix of the payload reaches disk yet the
//    rename still lands (a crash after rename on a filesystem that
//    reorders data and metadata writes).  This is the corruption the
//    checksummed load path (Module::load_file, and the clone store's
//    restore, which validates every checkpoint it scans) catches and
//    skips — not something the writer can prevent.

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "util/fault.h"

namespace fuse::util {

/// Atomically replaces `path` with `size` bytes at `data`.  Throws
/// std::runtime_error when the write cannot complete; `path` then still
/// holds its previous content (if any).
inline void write_file_atomic(const std::string& path, const void* data,
                              std::size_t size) {
  if (fault_fire(FaultPoint::kDiskWrite))
    throw std::runtime_error("write_file_atomic: injected disk fault for " +
                             path);
  // A torn write persists only a prefix of the payload (see header).
  std::size_t persisted = size;
  if (fault_fire(FaultPoint::kTornWrite)) persisted = size / 2;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os)
      throw std::runtime_error("write_file_atomic: cannot open " + tmp);
    os.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(persisted));
    os.flush();
    if (!os)
      throw std::runtime_error("write_file_atomic: write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm;
    std::filesystem::remove(tmp, rm);  // best effort; don't mask the error
    throw std::runtime_error("write_file_atomic: rename to " + path +
                             " failed: " + ec.message());
  }
}

inline void write_file_atomic(const std::string& path,
                              const std::string& bytes) {
  write_file_atomic(path, bytes.data(), bytes.size());
}

}  // namespace fuse::util
