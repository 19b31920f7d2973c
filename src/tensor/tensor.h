#pragma once
// Dense row-major float tensor.
//
// fuse::tensor is the numeric substrate for the NN library: a small,
// value-semantic, CPU-only tensor with contiguous row-major storage.  There
// is deliberately no autograd here — the NN layers implement their own
// explicit backward passes (see src/nn) which keeps the MAML inner/outer
// loop bookkeeping transparent.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace fuse::tensor {

/// Shape of a tensor: up to a handful of dimensions, row-major layout.
using Shape = std::vector<std::size_t>;

std::string shape_to_string(const Shape& s);
std::size_t shape_numel(const Shape& s);

class Tensor {
 public:
  /// Empty 0-element tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  Tensor(std::initializer_list<std::size_t> shape);

  /// Tensor wrapping a copy of the given data (size must equal numel).
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  /// 1-D tensor [0, 1, ..., n-1].
  static Tensor arange(std::size_t n);

  const Shape& shape() const { return shape_; }
  std::size_t ndim() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }
  std::size_t dim(std::size_t i) const { return shape_.at(i); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return {data_.data(), data_.size()}; }
  std::span<const float> span() const { return {data_.data(), data_.size()}; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Element access for 2-D tensors.
  float& at(std::size_t r, std::size_t c) { return data_[r * shape_[1] + c]; }
  float at(std::size_t r, std::size_t c) const {
    return data_[r * shape_[1] + c];
  }
  /// Element access for 4-D tensors [N, C, H, W].
  float& at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }
  float at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }

  /// Returns a copy with a new shape; numel must match.
  Tensor reshaped(Shape shape) const;
  /// In-place reshape; numel must match.
  void reshape(Shape shape);
  /// Gives the tensor `shape`, keeping its storage when that has room:
  /// elements below the old size keep their values, any beyond it are
  /// zero.  Reused buffers (nn::Tape) are sized this way, so a kernel that
  /// accumulates into one zeroes it first.
  void resize(const Shape& shape);

  /// Fill with a constant.
  void fill(float value);
  /// Set every element to zero.
  void zero() { fill(0.0f); }

  /// Elementwise in-place ops.
  Tensor& operator+=(const Tensor& o);
  Tensor& operator-=(const Tensor& o);
  Tensor& operator*=(float s);
  /// this += s * o  (axpy).
  void add_scaled(const Tensor& o, float s);

  /// Elementwise binary ops (shapes must match exactly).
  Tensor operator+(const Tensor& o) const;
  Tensor operator-(const Tensor& o) const;
  Tensor operator*(float s) const;

  /// Reductions.
  float sum() const;
  float mean() const;
  float abs_sum() const;
  float max() const;
  float min() const;
  /// Squared L2 norm of all elements.
  float squared_norm() const;

  /// Row slice of a 2-D tensor: rows [lo, hi) copied into a new tensor.
  Tensor rows(std::size_t lo, std::size_t hi) const;

  /// Binary serialization (shape + raw floats, little-endian).
  void save(std::ostream& os) const;
  static Tensor load(std::istream& is);

  /// Human-readable summary (shape + a few values), for debugging.
  std::string to_string(std::size_t max_values = 8) const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

/// Checks that two shapes are identical; fatal error otherwise.
void check_same_shape(const Tensor& a, const Tensor& b, const char* what);

}  // namespace fuse::tensor
