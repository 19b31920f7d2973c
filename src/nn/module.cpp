#include "nn/module.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.h"
#include "util/checksum.h"
#include "util/fault.h"

namespace fuse::nn {

namespace {

// Serialization header: magic + format version + architecture tag.  The
// version-2 format appends a payload length + FNV-1a checksum between the
// header and the parameter payload, so a truncated or bit-flipped
// checkpoint file throws at load time instead of silently deserializing
// garbage weights into a serving model.
constexpr char kMagic[8] = {'F', 'U', 'S', 'E', 'M', 'O', 'D', '2'};
constexpr char kMagicV1[8] = {'F', 'U', 'S', 'E', 'M', 'O', 'D', '1'};

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("Module::load: truncated stream");
  return v;
}

/// Validates one stream written by Module::save: magic, architecture tag,
/// payload length and FNV-1a checksum.  With a non-null `model`, the tag
/// and the length must also be the ones `model` writes.  Returns the
/// verified payload; throws std::runtime_error otherwise.
std::string read_checkpoint(std::istream& is, const Module* model) {
  char magic[sizeof(kMagic)] = {};
  is.read(magic, sizeof(magic));
  if (!is) throw std::runtime_error("Module::load: not a FUSE model stream");
  if (std::string(magic, sizeof(magic)) ==
      std::string(kMagicV1, sizeof(kMagicV1)))
    throw std::runtime_error(
        "Module::load: legacy unchecksummed FUSEMOD1 stream (re-save the "
        "checkpoint with this build)");
  if (std::string(magic, sizeof(magic)) != std::string(kMagic, sizeof(kMagic)))
    throw std::runtime_error("Module::load: not a FUSE model stream");
  const std::uint64_t arch_len = read_u64(is);
  if (arch_len > 4096)
    throw std::runtime_error("Module::load: corrupt architecture tag");
  std::string arch(arch_len, '\0');
  is.read(arch.data(), static_cast<std::streamsize>(arch_len));
  if (!is) throw std::runtime_error("Module::load: truncated stream");
  if (model != nullptr && arch != model->arch_name())
    throw std::runtime_error("Module::load: architecture mismatch (stream '" +
                             arch + "' vs model '" + model->arch_name() +
                             "')");
  // Integrity gate before the allocation below trusts the stored length:
  // a model fully determines its payload length, so any other is
  // corruption; without a model, 1 GiB bounds a corrupt length.
  const std::uint64_t payload_len = read_u64(is);
  if (model != nullptr) {
    std::uint64_t expect_len = sizeof(std::uint64_t);
    for (const Tensor* p : model->params())
      expect_len += sizeof(std::uint64_t) * (1 + p->ndim()) +
                    p->numel() * sizeof(float);
    if (payload_len != expect_len)
      throw std::runtime_error("Module::load: payload length mismatch (" +
                               std::to_string(payload_len) + " vs expected " +
                               std::to_string(expect_len) +
                               " bytes — truncated or corrupt stream)");
  } else if (payload_len > (1ull << 30)) {
    throw std::runtime_error("Module::load: implausible payload length");
  }
  const std::uint64_t stored_sum = read_u64(is);
  std::string payload(payload_len, '\0');
  is.read(payload.data(), static_cast<std::streamsize>(payload_len));
  if (!is || static_cast<std::uint64_t>(is.gcount()) != payload_len)
    throw std::runtime_error("Module::load: truncated stream");
  if (fuse::util::fnv1a(payload.data(), payload.size()) != stored_sum)
    throw std::runtime_error(
        "Module::load: payload checksum mismatch (corrupt checkpoint)");
  return payload;
}

/// Deserializes a payload read_checkpoint verified against `m` into its
/// parameters.  Every tensor is staged and shape-checked before any is
/// committed, so a mismatch throws without leaving `m` half-loaded.
void load_payload(Module& m, const std::string& payload) {
  const auto ps = m.params();
  std::istringstream payload_is(payload, std::ios::binary);
  if (read_u64(payload_is) != ps.size())
    throw std::runtime_error("Module::load: parameter count mismatch");
  std::vector<Tensor> staged;
  staged.reserve(ps.size());
  for (const Tensor* p : ps) {
    Tensor t = Tensor::load(payload_is);
    if (t.shape() != p->shape())
      throw std::runtime_error("Module::load: parameter shape mismatch");
    staged.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < ps.size(); ++i) *ps[i] = std::move(staged[i]);
}

}  // namespace

std::vector<const Tensor*> Module::params() const {
  // The parameter list itself is state-independent; only the non-const
  // accessor is virtual to keep implementations to a single method.
  auto mutable_list = const_cast<Module*>(this)->params();
  return {mutable_list.begin(), mutable_list.end()};
}

std::vector<const Tensor*> Module::grads() const {
  auto mutable_list = const_cast<Module*>(this)->grads();
  return {mutable_list.begin(), mutable_list.end()};
}

std::vector<ParamGroup> Module::param_groups() {
  return {ParamGroup{"all", params(), grads()}};
}

std::vector<Tensor*> Module::last_layer_params() {
  auto groups = param_groups();
  if (groups.empty()) return {};
  return std::move(groups.back().params);
}

std::vector<Tensor*> Module::last_layer_grads() {
  auto groups = param_groups();
  if (groups.empty()) return {};
  return std::move(groups.back().grads);
}

void Module::zero_grad() {
  for (Tensor* g : grads()) g->zero();
}

std::size_t Module::num_params() const {
  std::size_t n = 0;
  for (const Tensor* p : params()) n += p->numel();
  return n;
}

void Module::copy_params_from(const Module& other) {
  auto dst = params();
  const auto src = other.params();
  if (dst.size() != src.size())
    throw std::invalid_argument(
        "Module::copy_params_from: architecture mismatch (" + arch_name() +
        " vs " + other.arch_name() + ")");
  for (std::size_t i = 0; i < dst.size(); ++i) {
    if (dst[i]->shape() != src[i]->shape())
      throw std::invalid_argument("Module::copy_params_from: shape mismatch");
    *dst[i] = *src[i];
  }
}

void Module::save(std::ostream& os) const {
  os.write(kMagic, sizeof(kMagic));
  const std::string arch = arch_name();
  write_u64(os, arch.size());
  os.write(arch.data(), static_cast<std::streamsize>(arch.size()));
  // Serialize the parameter payload to memory first: the length + checksum
  // footer guards exactly these bytes, so load() can verify integrity
  // before a single tensor is deserialized.
  std::ostringstream payload_os(std::ios::binary);
  const auto ps = params();
  write_u64(payload_os, ps.size());
  for (const Tensor* p : ps) p->save(payload_os);
  const std::string payload = payload_os.str();
  write_u64(os, payload.size());
  write_u64(os, fuse::util::fnv1a(payload.data(), payload.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

std::string read_checkpoint_file(const std::string& path,
                                 const Module* model) {
  if (fuse::util::fault_fire(fuse::util::FaultPoint::kDiskRead))
    throw std::runtime_error("Module::load_file: injected read fault for " +
                             path);
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw std::runtime_error("Module::load_file: cannot open " + path);
  return read_checkpoint(is, model);
}

void Module::load(std::istream& is) {
  load_payload(*this, read_checkpoint(is, this));
}

void Module::save_file(const std::string& path) const {
  // Serialize fully in memory, then replace the destination atomically
  // (tmp + flush + rename): a failed write can never leave a half-written
  // checkpoint under the final name.
  std::ostringstream os(std::ios::binary);
  save(os);
  if (!os)
    throw std::runtime_error("Module::save_file: serialization failed");
  fuse::util::write_file_atomic(path, os.str());
}

void Module::load_file(const std::string& path) {
  load_payload(*this, read_checkpoint_file(path, this));
}

}  // namespace fuse::nn
