#pragma once
// Dense float-vector math shared by feature extraction and ANN search.
//
// The hot kernels (dot, l2_sq and their batched variants) are written as
// multi-accumulator unrolled loops over __restrict pointers: the explicit
// accumulator split removes the loop-carried floating-point dependency that
// blocks auto-vectorization under strict FP semantics, so the compiler can
// keep 8 independent lanes in flight (SSE/AVX at -O2/-O3, plain ILP
// otherwise). Scalar one-element-at-a-time references live in apx::ref for
// property tests and benchmark baselines.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace apx {

/// Dense feature vector. Plain alias: features are data, not behaviour.
using FeatureVec = std::vector<float>;

/// Inner product; spans must be the same length.
float dot(std::span<const float> a, std::span<const float> b) noexcept;

/// Squared Euclidean distance; spans must be the same length.
float l2_sq(std::span<const float> a, std::span<const float> b) noexcept;

/// Euclidean distance; spans must be the same length.
float l2(std::span<const float> a, std::span<const float> b) noexcept;

/// Euclidean norm.
float norm(std::span<const float> a) noexcept;

/// Cosine distance in [0, 2]: 1 - cos(a, b). Zero vectors compare at 1.
float cosine_distance(std::span<const float> a,
                      std::span<const float> b) noexcept;

/// Scales `v` in place to unit L2 norm; leaves zero vectors untouched.
void normalize(std::span<float> v) noexcept;

/// Element-wise a += b; spans must be the same length.
void add_in_place(std::span<float> a, std::span<const float> b) noexcept;

/// Element-wise a *= s.
void scale_in_place(std::span<float> a, float s) noexcept;

// ------------------------------------------------------- batched kernels
//
// `rows` points at `n` contiguous row-major vectors of `q.size()` floats
// each (row i at rows + i * q.size()); `out` receives n results. One pass
// over contiguous memory: this is how candidate scoring should be done.

/// out[i] = dot(q, row_i).
void dot_batch(std::span<const float> q, const float* rows, std::size_t n,
               float* out) noexcept;

/// out[i] = l2_sq(q, row_i).
void l2_sq_batch(std::span<const float> q, const float* rows, std::size_t n,
                 float* out) noexcept;

/// Gather variant: out[i] = l2_sq(q, arena + slots[i] * q.size()). Rows are
/// picked from an arena by slot index (still contiguous per row).
void l2_sq_gather(std::span<const float> q, const float* arena,
                  std::span<const std::uint32_t> slots, float* out) noexcept;

// -------------------------------------------------- SQ8 scan kernels
//
// Asymmetric distance computation over 8-bit affine codes: the query stays
// float, stored rows are uint8 codes with per-row affine parameters
// (value[i] ~= offset + scale * code[i]). Expanding the squared distance to
// the reconstruction,
//
//   |q - recon|^2 = |q|^2 - 2 (offset * sum(q) + scale * dot(q, codes))
//                 + |recon|^2,
//
// only dot(q, codes) depends on the row's codes; everything else is O(1)
// per row from precomputed terms. The uint8 rows quarter the memory
// traffic of the float scan, which is what the scan is bound by at
// realistic cache sizes.

/// ADC gather: out[i] = squared L2 distance from `q` to the reconstruction
/// of code row slots[i]. `code_arena` holds slot-major uint8 rows of
/// q.size() bytes; offsets/scales/recon_norm_sqs are per-slot affine
/// parameters and reconstruction norms (see above). `q_norm_sq` = |q|^2
/// and `q_sum` = sum(q) are per-query precomputes.
void adc_l2_sq_gather(std::span<const float> q, float q_norm_sq, float q_sum,
                      const std::uint8_t* code_arena, const float* offsets,
                      const float* scales, const float* recon_norm_sqs,
                      std::span<const std::uint32_t> slots,
                      float* out) noexcept;

namespace ref {

/// One-element-at-a-time scalar references (the pre-overhaul kernels).
/// Ground truth for property tests and the benchmark baseline.
float dot(std::span<const float> a, std::span<const float> b) noexcept;
float l2_sq(std::span<const float> a, std::span<const float> b) noexcept;
float cosine_distance(std::span<const float> a,
                      std::span<const float> b) noexcept;

}  // namespace ref

}  // namespace apx
