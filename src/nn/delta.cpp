#include "nn/delta.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.h"
#include "util/checksum.h"
#include "util/fault.h"

namespace fuse::nn {

namespace {

constexpr char kMagic[8] = {'F', 'U', 'S', 'E', 'D', 'L', 'T', '1'};

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("ParamDelta::load: truncated stream");
  return v;
}

/// Bitwise float comparison: the fp32 encoding records indices whose BIT
/// patterns differ (so a -0.0f vs +0.0f drift round-trips too, and no
/// float compare can mis-classify a NaN).
bool bits_differ(float a, float b) {
  std::uint32_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua != ub;
}

ParamDelta::Entry encode_fp32(const float* a, const float* b, std::size_t n) {
  // Every bit difference is recorded, so a NaN or -0.0 drift can never be
  // silently dropped.
  ParamDelta::Entry e;
  e.numel = n;
  std::size_t changed = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (bits_differ(a[i], b[i])) ++changed;
  // Sparse entries cost 8 bytes (u32 idx + fp32 value) vs 4 dense; past
  // half the tensor the dense raw dump is smaller and stays bit-exact.
  if (changed * 2 >= n) {
    e.kind = ParamDelta::Entry::Kind::kDenseFp32;
    e.values.assign(a, a + n);
    return e;
  }
  e.kind = ParamDelta::Entry::Kind::kSparseFp32;
  e.idx.reserve(changed);
  e.values.reserve(changed);
  for (std::size_t i = 0; i < n; ++i) {
    if (bits_differ(a[i], b[i])) {
      e.idx.push_back(static_cast<std::uint32_t>(i));
      e.values.push_back(a[i]);
    }
  }
  return e;
}

std::size_t entry_payload_bytes(const ParamDelta::Entry& e) {
  // kind u8 + numel u64 + per-kind payload (sparse adds a count u64).
  std::size_t bytes = 1 + sizeof(std::uint64_t);
  switch (e.kind) {
    case ParamDelta::Entry::Kind::kSparseFp32:
      bytes += sizeof(std::uint64_t) +
               e.idx.size() * (sizeof(std::uint32_t) + sizeof(float));
      break;
    case ParamDelta::Entry::Kind::kDenseFp32:
      bytes += e.values.size() * sizeof(float);
      break;
  }
  return bytes;
}

void save_entry(std::ostream& os, const ParamDelta::Entry& e) {
  const auto kind = static_cast<std::uint8_t>(e.kind);
  os.write(reinterpret_cast<const char*>(&kind), 1);
  write_u64(os, e.numel);
  switch (e.kind) {
    case ParamDelta::Entry::Kind::kSparseFp32:
      write_u64(os, e.idx.size());
      os.write(reinterpret_cast<const char*>(e.idx.data()),
               static_cast<std::streamsize>(e.idx.size() *
                                            sizeof(std::uint32_t)));
      os.write(reinterpret_cast<const char*>(e.values.data()),
               static_cast<std::streamsize>(e.values.size() * sizeof(float)));
      break;
    case ParamDelta::Entry::Kind::kDenseFp32:
      os.write(reinterpret_cast<const char*>(e.values.data()),
               static_cast<std::streamsize>(e.values.size() * sizeof(float)));
      break;
  }
}

ParamDelta::Entry load_entry(std::istream& is) {
  ParamDelta::Entry e;
  std::uint8_t kind = 0;
  is.read(reinterpret_cast<char*>(&kind), 1);
  if (!is || kind > 1)
    throw std::runtime_error("ParamDelta::load: corrupt entry kind");
  e.kind = static_cast<ParamDelta::Entry::Kind>(kind);
  e.numel = read_u64(is);
  switch (e.kind) {
    case ParamDelta::Entry::Kind::kSparseFp32: {
      const std::uint64_t nnz = read_u64(is);
      if (nnz > e.numel)
        throw std::runtime_error("ParamDelta::load: corrupt sparse count");
      e.idx.resize(nnz);
      e.values.resize(nnz);
      is.read(reinterpret_cast<char*>(e.idx.data()),
              static_cast<std::streamsize>(nnz * sizeof(std::uint32_t)));
      is.read(reinterpret_cast<char*>(e.values.data()),
              static_cast<std::streamsize>(nnz * sizeof(float)));
      break;
    }
    case ParamDelta::Entry::Kind::kDenseFp32:
      e.values.resize(e.numel);
      is.read(reinterpret_cast<char*>(e.values.data()),
              static_cast<std::streamsize>(e.numel * sizeof(float)));
      break;
  }
  if (!is) throw std::runtime_error("ParamDelta::load: truncated stream");
  return e;
}

}  // namespace

std::size_t ParamDelta::payload_bytes() const {
  std::size_t bytes = sizeof(std::uint64_t);  // entry count
  for (const auto& e : entries) bytes += entry_payload_bytes(e);
  return bytes;
}

void ParamDelta::save(std::ostream& os) const {
  os.write(kMagic, sizeof(kMagic));
  write_u64(os, arch.size());
  os.write(arch.data(), static_cast<std::streamsize>(arch.size()));
  std::ostringstream payload_os(std::ios::binary);
  write_u64(payload_os, entries.size());
  for (const auto& e : entries) save_entry(payload_os, e);
  const std::string payload = payload_os.str();
  write_u64(os, payload.size());
  write_u64(os, fuse::util::fnv1a(payload.data(), payload.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

ParamDelta ParamDelta::load(std::istream& is) {
  char magic[sizeof(kMagic)] = {};
  is.read(magic, sizeof(magic));
  if (!is ||
      std::string(magic, sizeof(magic)) != std::string(kMagic, sizeof(kMagic)))
    throw std::runtime_error("ParamDelta::load: not a FUSE delta stream");
  ParamDelta d;
  const std::uint64_t arch_len = read_u64(is);
  if (arch_len > 4096)
    throw std::runtime_error("ParamDelta::load: corrupt architecture tag");
  d.arch.resize(arch_len);
  is.read(d.arch.data(), static_cast<std::streamsize>(arch_len));
  if (!is) throw std::runtime_error("ParamDelta::load: truncated stream");
  const std::uint64_t payload_len = read_u64(is);
  // A delta can never legitimately outweigh a dense fp32 dump of a model
  // we'd serve (tensors are a few MB); 1 GiB bounds a corrupt length
  // before the allocation below trusts it.
  if (payload_len > (1ull << 30))
    throw std::runtime_error("ParamDelta::load: implausible payload length");
  const std::uint64_t stored_sum = read_u64(is);
  std::string payload(payload_len, '\0');
  is.read(payload.data(), static_cast<std::streamsize>(payload_len));
  if (!is || static_cast<std::uint64_t>(is.gcount()) != payload_len)
    throw std::runtime_error("ParamDelta::load: truncated stream");
  if (fuse::util::fnv1a(payload.data(), payload.size()) != stored_sum)
    throw std::runtime_error(
        "ParamDelta::load: payload checksum mismatch (corrupt delta file)");
  std::istringstream payload_is(payload, std::ios::binary);
  const std::uint64_t count = read_u64(payload_is);
  if (count > 65536)
    throw std::runtime_error("ParamDelta::load: implausible entry count");
  d.entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i)
    d.entries.push_back(load_entry(payload_is));
  return d;
}

void ParamDelta::save_file(const std::string& path) const {
  // Crash consistency: serialize fully in memory, then atomically replace
  // the destination (tmp + flush + rename).  A crash — or an injected
  // fault — mid-write can therefore never leave a half-written checkpoint
  // under the final name; the previous checkpoint (if any) survives
  // intact.
  std::ostringstream os(std::ios::binary);
  save(os);
  if (!os)
    throw std::runtime_error("ParamDelta::save_file: serialization failed");
  fuse::util::write_file_atomic(path, os.str());
}

ParamDelta ParamDelta::load_file(const std::string& path) {
  if (fuse::util::fault_fire(fuse::util::FaultPoint::kDiskRead))
    throw std::runtime_error("ParamDelta::load_file: injected read fault for " +
                             path);
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw std::runtime_error("ParamDelta::load_file: cannot open " + path);
  return load(is);
}

ParamDelta extract_delta(const Module& adapted, const Module& base) {
  const auto pa = adapted.params();
  const auto pb = base.params();
  if (adapted.arch_name() != base.arch_name() || pa.size() != pb.size())
    throw std::invalid_argument(
        "extract_delta: architecture mismatch (" + adapted.arch_name() +
        " vs " + base.arch_name() + ")");
  ParamDelta d;
  d.arch = base.arch_name();
  d.entries.reserve(pa.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i]->shape() != pb[i]->shape())
      throw std::invalid_argument("extract_delta: parameter shape mismatch");
    const std::size_t n = pa[i]->numel();
    d.entries.push_back(encode_fp32(pa[i]->data(), pb[i]->data(), n));
  }
  return d;
}

void apply_delta(const Module& base, const ParamDelta& delta, Module& target) {
  if (delta.arch != base.arch_name() || delta.arch != target.arch_name())
    throw std::runtime_error("apply_delta: architecture mismatch (delta '" +
                             delta.arch + "' vs base '" + base.arch_name() +
                             "' / target '" + target.arch_name() + "')");
  const auto pb = base.params();
  auto pt = target.params();
  if (delta.entries.size() != pb.size() || pb.size() != pt.size())
    throw std::runtime_error("apply_delta: parameter count mismatch");
  for (std::size_t i = 0; i < pt.size(); ++i) {
    const auto& e = delta.entries[i];
    const std::size_t n = pt[i]->numel();
    if (e.numel != n || pb[i]->numel() != n)
      throw std::runtime_error("apply_delta: parameter size mismatch");
    float* out = pt[i]->data();
    const float* b = pb[i]->data();
    switch (e.kind) {
      case ParamDelta::Entry::Kind::kSparseFp32:
        if (out != b) std::memcpy(out, b, n * sizeof(float));
        for (std::size_t k = 0; k < e.idx.size(); ++k) {
          if (e.idx[k] >= n)
            throw std::runtime_error("apply_delta: index out of range");
          out[e.idx[k]] = e.values[k];
        }
        break;
      case ParamDelta::Entry::Kind::kDenseFp32:
        if (e.values.size() != n)
          throw std::runtime_error("apply_delta: dense size mismatch");
        std::memcpy(out, e.values.data(), n * sizeof(float));
        break;
    }
  }
}

std::unique_ptr<Module> rehydrate_from_delta(const Module& base,
                                             const ParamDelta& delta) {
  auto clone = base.clone();
  apply_delta(base, delta, *clone);
  return clone;
}

}  // namespace fuse::nn
