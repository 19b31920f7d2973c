#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace fuse::tensor {

std::string shape_to_string(const Shape& s) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) os << ", ";
    os << s[i];
  }
  os << ']';
  return os.str();
}

std::size_t shape_numel(const Shape& s) {
  std::size_t n = 1;
  for (const auto d : s) n *= d;
  return s.empty() ? 0 : n;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(std::initializer_list<std::size_t> shape)
    : Tensor(Shape(shape)) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (data_.size() != shape_numel(shape_)) {
    throw std::invalid_argument("Tensor: data size " +
                                std::to_string(data_.size()) +
                                " does not match shape " +
                                shape_to_string(shape_));
  }
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::arange(std::size_t n) {
  Tensor t({n});
  for (std::size_t i = 0; i < n; ++i) t[i] = static_cast<float>(i);
  return t;
}

Tensor Tensor::reshaped(Shape shape) const {
  Tensor t = *this;
  t.reshape(std::move(shape));
  return t;
}

void Tensor::reshape(Shape shape) {
  if (shape_numel(shape) != numel()) {
    throw std::invalid_argument("Tensor::reshape: numel mismatch " +
                                shape_to_string(shape_) + " -> " +
                                shape_to_string(shape));
  }
  shape_ = std::move(shape);
}

void Tensor::resize(const Shape& shape) {
  data_.resize(shape_numel(shape));
  shape_ = shape;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* what) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
}

Tensor& Tensor::operator+=(const Tensor& o) {
  check_same_shape(*this, o, "Tensor::operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& o) {
  check_same_shape(*this, o, "Tensor::operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

void Tensor::add_scaled(const Tensor& o, float s) {
  check_same_shape(*this, o, "Tensor::add_scaled");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * o.data_[i];
}

Tensor Tensor::operator+(const Tensor& o) const {
  Tensor t = *this;
  t += o;
  return t;
}

Tensor Tensor::operator-(const Tensor& o) const {
  Tensor t = *this;
  t -= o;
  return t;
}

Tensor Tensor::operator*(float s) const {
  Tensor t = *this;
  t *= s;
  return t;
}

float Tensor::sum() const {
  // Pairwise-ish accumulation in double for stability on large tensors.
  double acc = 0.0;
  for (const auto v : data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  return data_.empty() ? 0.0f : sum() / static_cast<float>(data_.size());
}

float Tensor::abs_sum() const {
  double acc = 0.0;
  for (const auto v : data_) acc += std::fabs(v);
  return static_cast<float>(acc);
}

float Tensor::max() const {
  return data_.empty() ? 0.0f : *std::max_element(data_.begin(), data_.end());
}

float Tensor::min() const {
  return data_.empty() ? 0.0f : *std::min_element(data_.begin(), data_.end());
}

float Tensor::squared_norm() const {
  double acc = 0.0;
  for (const auto v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(acc);
}

Tensor Tensor::rows(std::size_t lo, std::size_t hi) const {
  if (ndim() != 2) throw std::invalid_argument("Tensor::rows: need 2-D");
  if (lo > hi || hi > shape_[0])
    throw std::out_of_range("Tensor::rows: bad range");
  const std::size_t cols = shape_[1];
  Tensor out({hi - lo, cols});
  std::memcpy(out.data(), data() + lo * cols, (hi - lo) * cols * sizeof(float));
  return out;
}

void Tensor::save(std::ostream& os) const {
  const std::uint64_t ndims = shape_.size();
  os.write(reinterpret_cast<const char*>(&ndims), sizeof(ndims));
  for (const auto d : shape_) {
    const std::uint64_t v = d;
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  os.write(reinterpret_cast<const char*>(data_.data()),
           static_cast<std::streamsize>(data_.size() * sizeof(float)));
}

Tensor Tensor::load(std::istream& is) {
  std::uint64_t ndims = 0;
  is.read(reinterpret_cast<char*>(&ndims), sizeof(ndims));
  Shape shape(ndims);
  for (auto& d : shape) {
    std::uint64_t v = 0;
    is.read(reinterpret_cast<char*>(&v), sizeof(v));
    d = static_cast<std::size_t>(v);
  }
  Tensor t(shape);
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.numel() * sizeof(float)));
  if (!is) throw std::runtime_error("Tensor::load: truncated stream");
  return t;
}

std::string Tensor::to_string(std::size_t max_values) const {
  std::ostringstream os;
  os << "Tensor" << shape_to_string(shape_) << " {";
  const std::size_t n = std::min(max_values, data_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << data_[i];
  }
  if (data_.size() > n) os << ", ...";
  os << '}';
  return os.str();
}

}  // namespace fuse::tensor
