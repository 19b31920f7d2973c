#pragma once
// A shim for the benchmark harness (perfbench/src/layers.cpp), which times
// a clone checkpoint and rehydration through these names.  A ParamDelta is
// the adapted module's FUSEMOD2 bytes (Module::save) held in memory, not a
// difference against the base.  Deleted with perfbench's clone rows
// (ROADMAP item 3, third bullet).

#include <memory>
#include <string>

#include "nn/module.h"

namespace fuse::nn {

struct ParamDelta {
  std::string bytes;  ///< one Module::save stream
  void save_file(const std::string& path) const;
  static ParamDelta load_file(const std::string& path);
};

/// Module::save of `adapted`; rehydration checks it against the base.
ParamDelta extract_delta(const Module& adapted, const Module& base);
/// base.clone() + Module::load of the delta's bytes.
std::unique_ptr<Module> rehydrate_from_delta(const Module& base,
                                             const ParamDelta& delta);

}  // namespace fuse::nn
