#pragma once
// Compute kernels on Tensors: the GEMM (all transpose variants), the
// implicit-GEMM convolution and its backward, im2col/col2im (the
// convolution's test oracles), and a few elementwise helpers used by the
// NN layers.
//
// GEMM is the performance backbone of the whole reproduction: the MARS
// CNN's fully connected layers and convolutions, in training and
// inference, all funnel into one register-tiled microkernel,
// compiled once per util::Isa level and split over 2-D output tiles with
// util::parallel_for.

#include <cstddef>

#include "tensor/tensor.h"
#include "util/isa.h"

namespace fuse::tensor {

enum class Trans { kNo, kYes };

/// C = alpha * op(A) * op(B) + beta * C
/// op(A) is [M, K], op(B) is [K, N], C is [M, N] (all row-major, 2-D).
/// Shapes are validated; throws std::invalid_argument on mismatch.
///
/// Runs util::dispatched_isa()'s variant of the kernel.  Every variant,
/// shape, transpose and worker count gives the same bits: each output is
/// the zero-started, sequential-k, multiply-then-add sum, then
/// `c = beta * c + alpha * sum` (C is not read when beta == 0).
void gemm(Trans trans_a, Trans trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c);

/// gemm() on an explicit variant (any of util::host_isas(); throws
/// std::invalid_argument for another) — the tests and benches compare
/// variants through it.
void gemm(Trans trans_a, Trans trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c, fuse::util::Isa isa);

/// Convenience: returns op(A) * op(B).
Tensor matmul(const Tensor& a, const Tensor& b, Trans trans_a = Trans::kNo,
              Trans trans_b = Trans::kNo);

/// Stride-1 convolution of x [N, C, H, W] by w [OC, C*kernel*kernel] with
/// symmetric zero padding `pad`, plus bias b [OC]: returns y [N, OC, oh,
/// ow], oh = conv_out_size(H, kernel, 1, pad), likewise ow.
///
/// An implicit GEMM, y_i = W * col(x_i) + b per image i, where col(x_i)
/// is im2col's [C*kernel*kernel, oh*ow] column matrix of the image.  The
/// GEMM packs each K-block x NR panel of col(x_i) from x, zero-padded once
/// per call (1.56 times x at 8 x 8 with pad 1; the columns would be 9
/// times), and folds each finished tile straight into y, so no column
/// matrix is ever stored.  Each output starts at its channel's bias
/// and adds the products in sequential k, so every variant, batch size and
/// worker count gives the same bits, and a batch's row i equals the
/// batch-1 result for image i.
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
              std::size_t kernel, std::size_t pad);
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
              std::size_t kernel, std::size_t pad, fuse::util::Isa isa);

/// Backward of conv2d() for upstream gradient dy [N, OC, oh, ow]:
///  - gw += dy · col(x)ᵀ, one implicit GEMM whose sum runs over every
///    image's pixels in order, from zero, before it is added to gw;
///  - gb += each channel's sum of dy over (n, oy, ox), in double;
///  - returns dx [N, C, H, W]: per image, the column gradients Wᵀ · dy_i
///    in a one-image scratch, scatter-added back as col2im does.
/// The bits equal the explicit-column path (im2col, gemm, col2im).
Tensor conv2d_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                       std::size_t kernel, std::size_t pad, Tensor& gw,
                       Tensor& gb);
Tensor conv2d_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                       std::size_t kernel, std::size_t pad, Tensor& gw,
                       Tensor& gb, fuse::util::Isa isa);

/// im2col for NCHW batches, one column matrix per sample: the explicit
/// lowering conv2d() gathers on the fly, kept as the tests' oracle.
///
/// Input  x:   [N, C, H, W]
/// Output col: [N, C*kh*kw, out_h*out_w]
/// out_h = (H + 2*pad - kh) / stride + 1, likewise out_w.
Tensor im2col(const Tensor& x, std::size_t kh, std::size_t kw,
              std::size_t stride, std::size_t pad);

/// Inverse scatter-add of im2col: accumulates columns back into an
/// [N, C, H, W] gradient image.
Tensor col2im(const Tensor& col, std::size_t n, std::size_t c, std::size_t h,
              std::size_t w, std::size_t kh, std::size_t kw,
              std::size_t stride, std::size_t pad);

/// y = relu(x), elementwise.
Tensor relu(const Tensor& x);
/// x = relu(x) in place (allocation-free variant for inference hot paths).
void relu_inplace(Tensor& x);
/// dx = dy where x > 0 else 0 (uses the forward input).
Tensor relu_backward(const Tensor& dy, const Tensor& x);

/// Elementwise a * b (Hadamard).
Tensor hadamard(const Tensor& a, const Tensor& b);

/// Adds bias[j] to every row j-column of a 2-D [N, F] tensor.
void add_row_bias(Tensor& x, const Tensor& bias);

/// Sums a 2-D [N, F] tensor over rows into a [F] tensor (bias gradient).
Tensor sum_rows(const Tensor& x);

/// Softmax over the last dimension of a 2-D tensor (used in tests and the
/// activity-classification example).
Tensor softmax_rows(const Tensor& x);

/// Output spatial size of a convolution dimension.
inline std::size_t conv_out_size(std::size_t in, std::size_t k,
                                 std::size_t stride, std::size_t pad) {
  return (in + 2 * pad - k) / stride + 1;
}

}  // namespace fuse::tensor
