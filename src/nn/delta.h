#pragma once
// Parameter-delta checkpoints: a per-user adapted model serialized as its
// difference against a shared base.
//
// The serving runtime clones the shared model's head (its last layer) once
// per adapting user and fine-tunes the clone online
// (serve::Shard::maybe_adapt); the clone store (serve/clone_store) evicts
// such clones to disk as deltas against the shared head and rehydrates
// them from there.
//
// One encoding: a BIT-EXACT fp32 round trip.  The delta records the raw
// adapted bit patterns at the indices whose bits differ from the base;
// rehydration copies the base and patches those indices.  No float
// arithmetic is involved (storing a - b and re-adding b is NOT bit-exact
// in IEEE arithmetic), so rehydrate(base, extract(adapted)) reproduces
// `adapted` exactly.  Each tensor is stored sparse or dense by its
// content: where at least half the entries changed (an SGD-adapted head
// changes nearly all of them) a dense raw dump is smaller, still
// bit-exact, and never larger than ~1.0x the fp32 tensor.
//
// The on-disk format is architecture-tagged like Module::save and carries
// the same payload length + FNV-1a checksum footer, so a truncated or
// corrupt clone-store file throws at load instead of rehydrating garbage
// into a user's model.  An unknown entry kind throws the same way; that
// includes kind 2, the lossy int8 encoding older binaries could write.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"

namespace fuse::nn {

/// One serialized adapted-vs-base parameter set.
struct ParamDelta {
  /// Per-tensor encoding, mirroring the order of Module::params().
  struct Entry {
    enum class Kind : std::uint8_t {
      kSparseFp32 = 0,  ///< idx[i] gets raw value[i]; others keep base
      kDenseFp32 = 1,   ///< full raw adapted values
    };
    Kind kind = Kind::kSparseFp32;
    std::uint64_t numel = 0;
    std::vector<std::uint32_t> idx;     ///< kSparseFp32
    std::vector<float> values;          ///< kSparseFp32 / kDenseFp32
  };

  std::string arch;  ///< Module::arch_name() of base and adapted
  std::vector<Entry> entries;

  bool empty() const { return entries.empty(); }
  /// Serialized payload size in bytes (the clone store's disk accounting).
  std::size_t payload_bytes() const;

  void save(std::ostream& os) const;
  static ParamDelta load(std::istream& is);
  void save_file(const std::string& path) const;
  static ParamDelta load_file(const std::string& path);
};

/// Encodes `adapted - base`.  Throws std::invalid_argument when the two
/// models' architectures or parameter shapes differ.
ParamDelta extract_delta(const Module& adapted, const Module& base);

/// Applies `delta` on top of `base` into `target` (all three must share
/// the architecture; `target` may alias neither).  Throws
/// std::runtime_error on an arch/shape mismatch.
void apply_delta(const Module& base, const ParamDelta& delta, Module& target);

/// Convenience: clone(base) + apply_delta — the clone-store rehydration
/// primitive; reproduces the adapted model bit-exactly.
std::unique_ptr<Module> rehydrate_from_delta(const Module& base,
                                             const ParamDelta& delta);

}  // namespace fuse::nn
