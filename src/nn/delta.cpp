#include "nn/delta.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.h"

namespace fuse::nn {

void ParamDelta::save_file(const std::string& path) const {
  fuse::util::write_file_atomic(path, bytes);
}

ParamDelta ParamDelta::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw std::runtime_error("ParamDelta::load_file: cannot open " + path);
  std::ostringstream bytes(std::ios::binary);
  bytes << is.rdbuf();
  return {bytes.str()};
}

ParamDelta extract_delta(const Module& adapted, const Module& /*base*/) {
  std::ostringstream os(std::ios::binary);
  adapted.save(os);
  return {os.str()};
}

std::unique_ptr<Module> rehydrate_from_delta(const Module& base,
                                             const ParamDelta& delta) {
  auto clone = base.clone();
  std::istringstream is(delta.bytes, std::ios::binary);
  clone->load(is);
  return clone;
}

}  // namespace fuse::nn
