#pragma once
// Host ISA dispatch, one table for every explicitly vectorized kernel: the
// DSP lane FFTs (dsp/plan.h) and the GEMM microkernel (tensor/ops.h).
//
// The build targets baseline x86-64 (SSE2) and uses no -march, so a kernel
// that wants wider vectors is compiled once per level under
// __attribute__((target(...))) and picked at run time from the levels
// listed here.  Every variant of a kernel produces the same bits as its
// generic one, so the choice changes speed, never results.

#include <cstddef>
#include <span>

namespace fuse::util {

/// ISA levels a dispatched kernel is compiled for, narrowest first.
enum class Isa { kGeneric, kAvx2, kAvx512f };

/// "sse2" (the x86-64 baseline), "neon" or "generic" off x86-64,
/// "avx2" or "avx512f".
constexpr const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512f:
      return "avx512f";
    case Isa::kGeneric:
      break;
  }
#if defined(__x86_64__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "generic";
#endif
}

/// The levels compiled into this binary that the host CPU can run,
/// narrowest first (kGeneric is always present; the wide levels only on
/// x86-64).  Detected once, on first use.
std::span<const Isa> host_isas();

/// The widest host level, chosen once (on x86-64 by
/// __builtin_cpu_supports, which also checks the OS saves the registers).
Isa dispatched_isa();

/// True when `isa` is one of host_isas().
bool host_supports(Isa isa);

}  // namespace fuse::util
