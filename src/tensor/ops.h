#pragma once
// Compute kernels on Tensors: the GEMM (all transpose variants),
// im2col/col2im for convolution lowering, and a few elementwise helpers
// used by the NN layers.
//
// GEMM is the performance backbone of the whole reproduction: the MARS
// CNN's fully connected layers and the im2col-lowered convolutions, in
// training and inference, all funnel into one register-tiled microkernel,
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

/// C = A * B + bias, bias [M] broadcast along each row of C [M, N] (the
/// GEMM conv forward, y2 = W * col + b).  Each accumulator starts at
/// bias[row] and adds the products in sequential k; C is overwritten with
/// it.  Same kernel and same guarantees as gemm().
void gemm_bias(const Tensor& a, const Tensor& b, const Tensor& bias,
               Tensor& c);
void gemm_bias(const Tensor& a, const Tensor& b, const Tensor& bias,
               Tensor& c, fuse::util::Isa isa);

/// Convenience: returns op(A) * op(B).
Tensor matmul(const Tensor& a, const Tensor& b, Trans trans_a = Trans::kNo,
              Trans trans_b = Trans::kNo);

/// im2col for NCHW batches.
///
/// Input  x:   [N, C, H, W]
/// Output col: [N, C*kh*kw, out_h*out_w]  (one column matrix per sample)
/// out_h = (H + 2*pad - kh) / stride + 1, likewise out_w.
Tensor im2col(const Tensor& x, std::size_t kh, std::size_t kw,
              std::size_t stride, std::size_t pad);

/// im2col variant that concatenates all samples along the column axis:
///
/// Input  x:   [N, C, H, W]
/// Output col: [C*kh*kw, N*out_h*out_w]  (sample n occupies columns
///             [n*out_h*out_w, (n+1)*out_h*out_w))
///
/// This is the GEMM-backend lowering: one weight matrix [OC, C*kh*kw]
/// times this column matrix yields the whole batch's outputs in a single
/// multiply, so the weight panel is read once per batch instead of once
/// per sample.
Tensor im2col_batched(const Tensor& x, std::size_t kh, std::size_t kw,
                      std::size_t stride, std::size_t pad);

/// Allocation-free im2col_batched: writes into `col`, which is resized to
/// [C*kh*kw, N*out_h*out_w] reusing its storage (pass a Workspace slot so
/// steady-shape training loops stop allocating column matrices per step).
void im2col_batched_into(const Tensor& x, std::size_t kh, std::size_t kw,
                         std::size_t stride, std::size_t pad, Tensor& col);

/// Inverse scatter-add of im2col: accumulates columns back into an
/// [N, C, H, W] gradient image.
Tensor col2im(const Tensor& col, std::size_t n, std::size_t c, std::size_t h,
              std::size_t w, std::size_t kh, std::size_t kw,
              std::size_t stride, std::size_t pad);

/// Inverse scatter-add of im2col_batched: col is [C*kh*kw, N*out_h*out_w],
/// the result accumulates into a zeroed [N, C, H, W] gradient image.  This
/// is the dx path of the GEMM conv backward (dx = col2im(W^T * dy2)).
Tensor col2im_batched(const Tensor& col, std::size_t n, std::size_t c,
                      std::size_t h, std::size_t w, std::size_t kh,
                      std::size_t kw, std::size_t stride, std::size_t pad);

/// Allocation-free col2im_batched: `x` is resized to [N, C, H, W] (storage
/// reused), zeroed, and scatter-accumulated into.
void col2im_batched_into(const Tensor& col, std::size_t n, std::size_t c,
                         std::size_t h, std::size_t w, std::size_t kh,
                         std::size_t kw, std::size_t stride, std::size_t pad,
                         Tensor& x);

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
