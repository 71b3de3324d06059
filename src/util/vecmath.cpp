#include "src/util/vecmath.hpp"

#include <cassert>
#include <cmath>

// Runtime ISA dispatch rule: a float kernel may pick an ISA-specific body
// at run time only when every body performs the same IEEE operations in
// the same order in each output lane, so its bits — and the simulation
// goldens — cannot shift with the host CPU. MiniCnn's conv kernel
// (src/features/conv3x3.cpp) dispatches under this rule: its AVX2 body
// multiplies then adds, never fused. The pure-float kernels below need no
// dispatch; GCC vectorizes their 8-accumulator loops at the baseline ISA.
// The SQ8 kernels are the one exception: the u8 -> f32 widening the
// asymmetric-distance pass lives on does not auto-vectorize profitably at
// the baseline ISA, so they dispatch to AVX2+FMA / AVX-512 variants whose
// fused sums may round differently per host. They serve only the opt-in
// quantized scan (`local(q8)`), which re-ranks its survivors with exact
// float distances.
#if defined(__x86_64__) && defined(__GNUC__)
#define APX_SQ8_X86_DISPATCH 1
#include <immintrin.h>
#else
#define APX_SQ8_X86_DISPATCH 0
#endif

namespace apx {
namespace {

// 8 independent accumulators: the unroll width that fills one AVX register
// (or two SSE ones) and gives scalar fallback enough ILP to hide FMA
// latency. Tails shorter than 8 fall through to the scalar loop.
inline float dot_kernel(const float* __restrict a, const float* __restrict b,
                        std::size_t n) noexcept {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  float s4 = 0.0f, s5 = 0.0f, s6 = 0.0f, s7 = 0.0f;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    s0 += a[i + 0] * b[i + 0];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
    s4 += a[i + 4] * b[i + 4];
    s5 += a[i + 5] * b[i + 5];
    s6 += a[i + 6] * b[i + 6];
    s7 += a[i + 7] * b[i + 7];
  }
  float s = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

inline float l2_sq_kernel(const float* __restrict a, const float* __restrict b,
                          std::size_t n) noexcept {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  float s4 = 0.0f, s5 = 0.0f, s6 = 0.0f, s7 = 0.0f;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const float d0 = a[i + 0] - b[i + 0];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    const float d4 = a[i + 4] - b[i + 4];
    const float d5 = a[i + 5] - b[i + 5];
    const float d6 = a[i + 6] - b[i + 6];
    const float d7 = a[i + 7] - b[i + 7];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
    s4 += d4 * d4;
    s5 += d5 * d5;
    s6 += d6 * d6;
    s7 += d7 * d7;
  }
  float s = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

// Same 8-accumulator shape as dot_kernel, but the second operand is a uint8
// code row: the u8 -> float widening vectorizes (pmovzxbd + cvtdq2ps) and
// the row costs a quarter of the float row's memory traffic.
inline float dot_u8_kernel(const float* __restrict a,
                           const std::uint8_t* __restrict b,
                           std::size_t n) noexcept {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  float s4 = 0.0f, s5 = 0.0f, s6 = 0.0f, s7 = 0.0f;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    s0 += a[i + 0] * static_cast<float>(b[i + 0]);
    s1 += a[i + 1] * static_cast<float>(b[i + 1]);
    s2 += a[i + 2] * static_cast<float>(b[i + 2]);
    s3 += a[i + 3] * static_cast<float>(b[i + 3]);
    s4 += a[i + 4] * static_cast<float>(b[i + 4]);
    s5 += a[i + 5] * static_cast<float>(b[i + 5]);
    s6 += a[i + 6] * static_cast<float>(b[i + 6]);
    s7 += a[i + 7] * static_cast<float>(b[i + 7]);
  }
  float s = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
  for (; i < n; ++i) s += a[i] * static_cast<float>(b[i]);
  return s;
}

#if APX_SQ8_X86_DISPATCH

__attribute__((target("avx2,fma"))) inline float dot_u8_avx2(
    const float* __restrict a, const std::uint8_t* __restrict b,
    std::size_t n) noexcept {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // 16 codes per load; vpmovzxbd + vcvtdq2ps widens each half to 8 floats.
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m256 lo = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(raw));
    const __m256 hi =
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_srli_si128(raw, 8)));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), lo, acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), hi, acc1);
  }
  const __m256 acc = _mm256_add_ps(acc0, acc1);
  __m128 s =
      _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  float out = _mm_cvtss_f32(s);
  for (; i < n; ++i) out += a[i] * static_cast<float>(b[i]);
  return out;
}

// Widen 8 codes to floats from an m64 memory operand: one shuffle-port uop
// per 8 elements, with no vpsrldq to split a 16B load.
__attribute__((target("avx2,fma"))) inline __m256 widen8_avx2(
    const std::uint8_t* p) noexcept {
  return _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
}

// Blocks of four candidate rows share the query loads and give the core
// eight independent FMA chains — a single row's two chains leave the FMA
// units idle on their 4-cycle latency, and the per-row horizontal reduce
// serialises behind them.
__attribute__((target("avx2,fma"))) void adc_l2_sq_gather_avx2(
    std::span<const float> q, float q_norm_sq, float q_sum,
    const std::uint8_t* code_arena, const float* offsets, const float* scales,
    const float* recon_norm_sqs, std::span<const std::uint32_t> slots,
    float* out) noexcept {
  const std::size_t dim = q.size();
  const float* qp = q.data();
  std::size_t i = 0;
  if (dim % 16 == 0) {
    const __m256 vq_norm = _mm256_set1_ps(q_norm_sq);
    const __m256 vq_sum = _mm256_set1_ps(q_sum);
    for (; i + 4 <= slots.size(); i += 4) {
      const std::uint8_t* r0 =
          code_arena + static_cast<std::size_t>(slots[i + 0]) * dim;
      const std::uint8_t* r1 =
          code_arena + static_cast<std::size_t>(slots[i + 1]) * dim;
      const std::uint8_t* r2 =
          code_arena + static_cast<std::size_t>(slots[i + 2]) * dim;
      const std::uint8_t* r3 =
          code_arena + static_cast<std::size_t>(slots[i + 3]) * dim;
      __m256 a0l = _mm256_setzero_ps(), a0h = _mm256_setzero_ps();
      __m256 a1l = _mm256_setzero_ps(), a1h = _mm256_setzero_ps();
      __m256 a2l = _mm256_setzero_ps(), a2h = _mm256_setzero_ps();
      __m256 a3l = _mm256_setzero_ps(), a3h = _mm256_setzero_ps();
      for (std::size_t j = 0; j < dim; j += 16) {
        const __m256 qlo = _mm256_loadu_ps(qp + j);
        const __m256 qhi = _mm256_loadu_ps(qp + j + 8);
        // Two m64-sourced vpmovzxbd per row instead of a 16B load plus a
        // vpsrldq: the byte-shift competes with the widen for the shuffle
        // port, which is what this loop saturates first.
        a0l = _mm256_fmadd_ps(qlo, widen8_avx2(r0 + j), a0l);
        a0h = _mm256_fmadd_ps(qhi, widen8_avx2(r0 + j + 8), a0h);
        a1l = _mm256_fmadd_ps(qlo, widen8_avx2(r1 + j), a1l);
        a1h = _mm256_fmadd_ps(qhi, widen8_avx2(r1 + j + 8), a1h);
        a2l = _mm256_fmadd_ps(qlo, widen8_avx2(r2 + j), a2l);
        a2h = _mm256_fmadd_ps(qhi, widen8_avx2(r2 + j + 8), a2h);
        a3l = _mm256_fmadd_ps(qlo, widen8_avx2(r3 + j), a3l);
        a3h = _mm256_fmadd_ps(qhi, widen8_avx2(r3 + j + 8), a3h);
      }
      // 4 x ymm -> one xmm holding {dot0, dot1, dot2, dot3}.
      const __m256 t01 =
          _mm256_hadd_ps(_mm256_add_ps(a0l, a0h), _mm256_add_ps(a1l, a1h));
      const __m256 t23 =
          _mm256_hadd_ps(_mm256_add_ps(a2l, a2h), _mm256_add_ps(a3l, a3h));
      const __m256 t = _mm256_hadd_ps(t01, t23);
      const __m128 dots =
          _mm_add_ps(_mm256_castps256_ps128(t), _mm256_extractf128_ps(t, 1));
      // out = q_norm - 2*(offset*q_sum + scale*dot) + recon_norm, 4 wide.
      const __m128i vslots = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(slots.data() + i));
      const __m128 voff = _mm_i32gather_ps(offsets, vslots, 4);
      const __m128 vscale = _mm_i32gather_ps(scales, vslots, 4);
      const __m128 vrecon = _mm_i32gather_ps(recon_norm_sqs, vslots, 4);
      const __m128 cross = _mm_fmadd_ps(
          vscale, dots, _mm_mul_ps(voff, _mm256_castps256_ps128(vq_sum)));
      const __m128 res = _mm_add_ps(
          _mm_fnmadd_ps(_mm_set1_ps(2.0f), cross,
                        _mm256_castps256_ps128(vq_norm)),
          vrecon);
      _mm_storeu_ps(out + i, res);
    }
  }
  for (; i < slots.size(); ++i) {
    const std::uint32_t slot = slots[i];
    const float d = dot_u8_avx2(
        qp, code_arena + static_cast<std::size_t>(slot) * dim, dim);
    const float cross = offsets[slot] * q_sum + scales[slot] * d;
    out[i] = q_norm_sq - 2.0f * cross + recon_norm_sqs[slot];
  }
}

// GCC 12's AVX-512 intrinsic headers trip -Wmaybe-uninitialized on their
// own undefined merge operands (__Y); scoped suppression, not our code.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

__attribute__((target("avx512f,avx2,fma"))) inline __m512 widen16_avx512(
    const std::uint8_t* p) noexcept {
  return _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))));
}

// zmm -> ymm lane fold; extractf64x4 keeps this AVX512F-only.
__attribute__((target("avx512f,avx2,fma"))) inline __m256 fold512_avx512(
    __m512 a) noexcept {
  return _mm256_add_ps(
      _mm512_castps512_ps256(a),
      _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(a), 1)));
}

// Per-slot tail of the scan for one group of four rows: fold each zmm
// accumulator to a ymm, hadd-ladder into {dot0..dot3}, then finish the
// expansion q_norm - 2*(offset*q_sum + scale*dot) + recon_norm four wide
// with 128-bit gathers over the SoA stats (legal inside an avx512f target).
__attribute__((target("avx512f,avx2,fma"))) inline void adc_epilogue4_avx512(
    __m512 a0, __m512 a1, __m512 a2, __m512 a3, const std::uint32_t* slots,
    const float* offsets, const float* scales, const float* recon_norm_sqs,
    float q_norm_sq, float q_sum, float* out) noexcept {
  const __m256 t01 = _mm256_hadd_ps(fold512_avx512(a0), fold512_avx512(a1));
  const __m256 t23 = _mm256_hadd_ps(fold512_avx512(a2), fold512_avx512(a3));
  const __m256 t = _mm256_hadd_ps(t01, t23);
  const __m128 dots =
      _mm_add_ps(_mm256_castps256_ps128(t), _mm256_extractf128_ps(t, 1));
  const __m128i vslots =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(slots));
  const __m128 voff = _mm_i32gather_ps(offsets, vslots, 4);
  const __m128 vscale = _mm_i32gather_ps(scales, vslots, 4);
  const __m128 vrecon = _mm_i32gather_ps(recon_norm_sqs, vslots, 4);
  const __m128 cross =
      _mm_fmadd_ps(vscale, dots, _mm_mul_ps(voff, _mm_set1_ps(q_sum)));
  const __m128 res = _mm_add_ps(
      _mm_fnmadd_ps(_mm_set1_ps(2.0f), cross, _mm_set1_ps(q_norm_sq)),
      vrecon);
  _mm_storeu_ps(out, res);
}

// AVX-512 tier: one vpmovzxbd widens 16 codes (vs 8), and the dual 512-bit
// FMA units halve the multiply-add uops per element. Eight rows per block
// keeps eight independent chains in flight and amortises the shared query
// loads and the per-slot epilogue across the block.
__attribute__((target("avx512f,avx2,fma"))) void adc_l2_sq_gather_avx512(
    std::span<const float> q, float q_norm_sq, float q_sum,
    const std::uint8_t* code_arena, const float* offsets, const float* scales,
    const float* recon_norm_sqs, std::span<const std::uint32_t> slots,
    float* out) noexcept {
  const std::size_t dim = q.size();
  const float* qp = q.data();
  std::size_t i = 0;
  if (dim % 16 == 0) {
    for (; i + 8 <= slots.size(); i += 8) {
      const std::uint8_t* r0 =
          code_arena + static_cast<std::size_t>(slots[i + 0]) * dim;
      const std::uint8_t* r1 =
          code_arena + static_cast<std::size_t>(slots[i + 1]) * dim;
      const std::uint8_t* r2 =
          code_arena + static_cast<std::size_t>(slots[i + 2]) * dim;
      const std::uint8_t* r3 =
          code_arena + static_cast<std::size_t>(slots[i + 3]) * dim;
      const std::uint8_t* r4 =
          code_arena + static_cast<std::size_t>(slots[i + 4]) * dim;
      const std::uint8_t* r5 =
          code_arena + static_cast<std::size_t>(slots[i + 5]) * dim;
      const std::uint8_t* r6 =
          code_arena + static_cast<std::size_t>(slots[i + 6]) * dim;
      const std::uint8_t* r7 =
          code_arena + static_cast<std::size_t>(slots[i + 7]) * dim;
      __m512 a0 = _mm512_setzero_ps();
      __m512 a1 = _mm512_setzero_ps();
      __m512 a2 = _mm512_setzero_ps();
      __m512 a3 = _mm512_setzero_ps();
      __m512 a4 = _mm512_setzero_ps();
      __m512 a5 = _mm512_setzero_ps();
      __m512 a6 = _mm512_setzero_ps();
      __m512 a7 = _mm512_setzero_ps();
      for (std::size_t j = 0; j < dim; j += 16) {
        const __m512 qv = _mm512_loadu_ps(qp + j);
        a0 = _mm512_fmadd_ps(qv, widen16_avx512(r0 + j), a0);
        a1 = _mm512_fmadd_ps(qv, widen16_avx512(r1 + j), a1);
        a2 = _mm512_fmadd_ps(qv, widen16_avx512(r2 + j), a2);
        a3 = _mm512_fmadd_ps(qv, widen16_avx512(r3 + j), a3);
        a4 = _mm512_fmadd_ps(qv, widen16_avx512(r4 + j), a4);
        a5 = _mm512_fmadd_ps(qv, widen16_avx512(r5 + j), a5);
        a6 = _mm512_fmadd_ps(qv, widen16_avx512(r6 + j), a6);
        a7 = _mm512_fmadd_ps(qv, widen16_avx512(r7 + j), a7);
      }
      adc_epilogue4_avx512(a0, a1, a2, a3, slots.data() + i, offsets, scales,
                           recon_norm_sqs, q_norm_sq, q_sum, out + i);
      adc_epilogue4_avx512(a4, a5, a6, a7, slots.data() + i + 4, offsets,
                           scales, recon_norm_sqs, q_norm_sq, q_sum,
                           out + i + 4);
    }
  }
  for (; i < slots.size(); ++i) {
    const std::uint32_t slot = slots[i];
    const float d = dot_u8_avx2(
        qp, code_arena + static_cast<std::size_t>(slot) * dim, dim);
    const float cross = offsets[slot] * q_sum + scales[slot] * d;
    out[i] = q_norm_sq - 2.0f * cross + recon_norm_sqs[slot];
  }
}

#pragma GCC diagnostic pop

bool cpu_has_avx2_fma() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

bool cpu_has_avx512() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && cpu_has_avx2_fma();
}

#endif  // APX_SQ8_X86_DISPATCH

}  // namespace

float dot(std::span<const float> a, std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  return dot_kernel(a.data(), b.data(), a.size());
}

float l2_sq(std::span<const float> a, std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  return l2_sq_kernel(a.data(), b.data(), a.size());
}

float l2(std::span<const float> a, std::span<const float> b) noexcept {
  return std::sqrt(l2_sq(a, b));
}

float norm(std::span<const float> a) noexcept {
  return std::sqrt(dot(a, a));
}

float cosine_distance(std::span<const float> a,
                      std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  // One fused pass: dot and both norms share the loads.
  const float* __restrict pa = a.data();
  const float* __restrict pb = b.data();
  const std::size_t n = a.size();
  float ab0 = 0.0f, ab1 = 0.0f, ab2 = 0.0f, ab3 = 0.0f;
  float aa0 = 0.0f, aa1 = 0.0f, aa2 = 0.0f, aa3 = 0.0f;
  float bb0 = 0.0f, bb1 = 0.0f, bb2 = 0.0f, bb3 = 0.0f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ab0 += pa[i + 0] * pb[i + 0];
    ab1 += pa[i + 1] * pb[i + 1];
    ab2 += pa[i + 2] * pb[i + 2];
    ab3 += pa[i + 3] * pb[i + 3];
    aa0 += pa[i + 0] * pa[i + 0];
    aa1 += pa[i + 1] * pa[i + 1];
    aa2 += pa[i + 2] * pa[i + 2];
    aa3 += pa[i + 3] * pa[i + 3];
    bb0 += pb[i + 0] * pb[i + 0];
    bb1 += pb[i + 1] * pb[i + 1];
    bb2 += pb[i + 2] * pb[i + 2];
    bb3 += pb[i + 3] * pb[i + 3];
  }
  float ab = (ab0 + ab1) + (ab2 + ab3);
  float aa = (aa0 + aa1) + (aa2 + aa3);
  float bb = (bb0 + bb1) + (bb2 + bb3);
  for (; i < n; ++i) {
    ab += pa[i] * pb[i];
    aa += pa[i] * pa[i];
    bb += pb[i] * pb[i];
  }
  const float na = std::sqrt(aa);
  const float nb = std::sqrt(bb);
  if (na == 0.0f || nb == 0.0f) return 1.0f;
  return 1.0f - ab / (na * nb);
}

void normalize(std::span<float> v) noexcept {
  const float n = norm(v);
  if (n == 0.0f) return;
  scale_in_place(v, 1.0f / n);
}

void add_in_place(std::span<float> a, std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  float* __restrict pa = a.data();
  const float* __restrict pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) pa[i] += pb[i];
}

void scale_in_place(std::span<float> a, float s) noexcept {
  for (float& x : a) x *= s;
}

void dot_batch(std::span<const float> q, const float* rows, std::size_t n,
               float* out) noexcept {
  const std::size_t dim = q.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = dot_kernel(q.data(), rows + i * dim, dim);
  }
}

void l2_sq_batch(std::span<const float> q, const float* rows, std::size_t n,
                 float* out) noexcept {
  const std::size_t dim = q.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = l2_sq_kernel(q.data(), rows + i * dim, dim);
  }
}

void l2_sq_gather(std::span<const float> q, const float* arena,
                  std::span<const std::uint32_t> slots, float* out) noexcept {
  const std::size_t dim = q.size();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    out[i] = l2_sq_kernel(q.data(), arena + slots[i] * dim, dim);
  }
}

void adc_l2_sq_gather(std::span<const float> q, float q_norm_sq, float q_sum,
                      const std::uint8_t* code_arena, const float* offsets,
                      const float* scales, const float* recon_norm_sqs,
                      std::span<const std::uint32_t> slots,
                      float* out) noexcept {
#if APX_SQ8_X86_DISPATCH
  static const bool kAvx512 = cpu_has_avx512();
  if (kAvx512) {
    adc_l2_sq_gather_avx512(q, q_norm_sq, q_sum, code_arena, offsets, scales,
                            recon_norm_sqs, slots, out);
    return;
  }
  static const bool kAvx2 = cpu_has_avx2_fma();
  if (kAvx2) {
    adc_l2_sq_gather_avx2(q, q_norm_sq, q_sum, code_arena, offsets, scales,
                          recon_norm_sqs, slots, out);
    return;
  }
#endif
  const std::size_t dim = q.size();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::uint32_t slot = slots[i];
    const float d = dot_u8_kernel(
        q.data(), code_arena + static_cast<std::size_t>(slot) * dim, dim);
    const float cross = offsets[slot] * q_sum + scales[slot] * d;
    out[i] = q_norm_sq - 2.0f * cross + recon_norm_sqs[slot];
  }
}

namespace ref {

float dot(std::span<const float> a, std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  float s = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

float l2_sq(std::span<const float> a, std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  float s = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

float cosine_distance(std::span<const float> a,
                      std::span<const float> b) noexcept {
  const float na = std::sqrt(ref::dot(a, a));
  const float nb = std::sqrt(ref::dot(b, b));
  if (na == 0.0f || nb == 0.0f) return 1.0f;
  return 1.0f - ref::dot(a, b) / (na * nb);
}

}  // namespace ref

}  // namespace apx
