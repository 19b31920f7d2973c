#include "util/isa.h"

#include <algorithm>
#include <vector>

namespace fuse::util {

namespace {

std::vector<Isa> detect_host_isas() {
  std::vector<Isa> out{Isa::kGeneric};
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) out.push_back(Isa::kAvx2);
  if (__builtin_cpu_supports("avx512f")) out.push_back(Isa::kAvx512f);
#endif
  return out;
}

}  // namespace

std::span<const Isa> host_isas() {
  // A function-local static, not a namespace-scope initializer: kernels
  // may dispatch from other translation units' static initializers.
  static const std::vector<Isa> isas = detect_host_isas();
  return isas;
}

Isa dispatched_isa() {
  static const Isa widest = host_isas().back();
  return widest;
}

bool host_supports(Isa isa) {
  const auto isas = host_isas();
  return std::find(isas.begin(), isas.end(), isa) != isas.end();
}

}  // namespace fuse::util
