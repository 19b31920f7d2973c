#pragma once
// GCC/clang vector-extension helpers shared by the ISA-dispatched kernels
// (the DSP lane FFTs in dsp/plan.cpp, the GEMM microkernel in
// tensor/ops.cpp); util/isa.h picks which instantiation runs.
//
// Vectors cross function boundaries only by reference: a by-value
// 32/64-byte vector in a signature would change the ABI of the
// default-target code that instantiates nothing wider than 16 bytes.
// Every helper is always_inline, so each variant's entry points compile
// the whole kernel under their own target attribute.  The helpers only
// move data, so a kernel built on them does exactly the float operations
// it spells out, lane by lane.

#include <cstddef>
#include <cstring>
#include <utility>

namespace fuse::util::simd {

typedef float f32x4 __attribute__((vector_size(16)));
#if defined(__x86_64__)
typedef float f32x8 __attribute__((vector_size(32)));
typedef float f32x16 __attribute__((vector_size(64)));
#endif

template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(float);

template <typename V>
[[gnu::always_inline]] inline void vload(V& v, const void* p) {
  std::memcpy(&v, p, sizeof(V));
}

template <typename V>
[[gnu::always_inline]] inline void vstore(void* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

/// Loads the L x L tile whose row l starts at p + l * stride (stride in
/// elements of T).  Unrolled so each row goes straight into its register;
/// a rolled loop copies the tile through the stack.
template <typename V, typename T>
[[gnu::always_inline]] inline void load_tile(V* m, const T* p,
                                             std::size_t stride) {
#pragma GCC unroll 16
  for (std::size_t l = 0; l < kLanes<V>; ++l) vload(m[l], p + l * stride);
}

/// Swaps the off-diagonal B x B sub-blocks of every 2B x 2B block of the
/// two rows (a, b) = rows (i, i + B) of a square block.
template <std::size_t B, typename V, std::size_t... P>
[[gnu::always_inline]] inline void swap_subblocks(V& a, V& b,
                                                  std::index_sequence<P...>) {
  constexpr std::size_t L = sizeof...(P);
  const V lo = __builtin_shufflevector(a, b, ((P & B) ? L + P - B : P)...);
  const V hi = __builtin_shufflevector(a, b, ((P & B) ? L + P : P + B)...);
  a = lo;
  b = hi;
}

/// Transposes the L x L block m[0..L) in registers: log2(L) rounds of
/// sub-block swaps, B = 1, 2, ..., L/2.
template <typename V, std::size_t B = 1>
[[gnu::always_inline]] inline void transpose(V* m) {
  constexpr std::size_t L = kLanes<V>;
  if constexpr (B < L) {
    for (std::size_t i = 0; i < L; ++i)
      if ((i & B) == 0)
        swap_subblocks<B>(m[i], m[i + B], std::make_index_sequence<L>{});
    transpose<V, 2 * B>(m);
  }
}

}  // namespace fuse::util::simd
