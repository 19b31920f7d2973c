#pragma once
// FNV-1a 64-bit checksum — the integrity footer of the persistable blob
// formats (nn::Module checkpoints, clone-store heads included).
//
// FNV-1a is not cryptographic; it exists to turn a truncated, bit-flipped
// or garbage checkpoint file into a clean std::runtime_error at load time
// instead of a silently mis-deserialized model.  It is a few instructions
// per byte, runs once per save/load (never on a serving hot path), and has
// no dependencies, which is exactly the budget a checkpoint footer gets.

#include <cstddef>
#include <cstdint>

namespace fuse::util {

inline constexpr std::uint64_t kFnv1aSeed = 0xcbf29ce484222325ull;

/// Accumulating form: feed consecutive buffers, threading the returned
/// value through as the next call's `seed`.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t seed = kFnv1aSeed) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return h;
}

}  // namespace fuse::util
