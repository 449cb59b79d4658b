// Scalar reference kernels, NEON variants, and the runtime dispatch table.
//
// The scalar matmul specializations moved here from ops.cpp unchanged: one
// output row of compile-time width accumulated in registers, and a 4-row
// variant whose independent FMA chains hide multiply-add latency. Every
// kernel sums k in ascending order. The narrow widths (m <= 8, the task
// heads) run one row at a time, so a row's bits never depend on how many
// rows share the product.

#include "tensor/backend.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <vector>

#include "tensor/fastmath.h"
#include "tensor/gemm_blocked.h"

#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace g2p::backend {

// Implemented in backend_avx2.cpp (a TU compiled with -mavx2 -mfma when the
// toolchain supports it); returns nullptr when the TU was built without
// AVX2 support. CPU capability is checked at dispatch, not here.
const Kernels* avx2_table();

namespace {

// ---------------------------------------------------------------------------
// Scalar matmul (moved verbatim from ops.cpp)
// ---------------------------------------------------------------------------

/// One output row accumulated in registers across the k loop.
template <int M>
void matmul_fixed_width(const float* __restrict a, const float* __restrict b,
                        float* __restrict out, int n, int k) {
  for (int i = 0; i < n; ++i) {
    float acc[M] = {};
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      const float* brow = b + static_cast<std::size_t>(kk) * M;
      for (int j = 0; j < M; ++j) acc[j] += av * brow[j];
    }
    float* orow = out + static_cast<std::size_t>(i) * M;
    for (int j = 0; j < M; ++j) orow[j] = acc[j];
  }
}

/// Four output rows in flight — independent FMA chains hide the multiply-add
/// latency that serializes the single-row kernel. A last group of fewer than
/// four rows runs the same loop body, its missing rows aliased to its first
/// row and their results dropped: every row is computed by the same
/// instructions, so its bits do not depend on n (a separate tail kernel may
/// be compiled with different FMA contraction).
template <int M>
void matmul_fixed_width_x4(const float* __restrict a, const float* __restrict b,
                           float* __restrict out, int n, int k) {
  for (int i = 0; i < n; i += 4) {
    const int rows = std::min(4, n - i);
    float acc0[M] = {}, acc1[M] = {}, acc2[M] = {}, acc3[M] = {};
    const float* a0 = a + static_cast<std::size_t>(i) * k;
    const float* a1 = rows > 1 ? a0 + k : a0;
    const float* a2 = rows > 2 ? a1 + k : a0;
    const float* a3 = rows > 3 ? a2 + k : a0;
    for (int kk = 0; kk < k; ++kk) {
      const float* brow = b + static_cast<std::size_t>(kk) * M;
      const float v0 = a0[kk], v1 = a1[kk], v2 = a2[kk], v3 = a3[kk];
      for (int j = 0; j < M; ++j) {
        const float bj = brow[j];
        acc0[j] += v0 * bj;
        acc1[j] += v1 * bj;
        acc2[j] += v2 * bj;
        acc3[j] += v3 * bj;
      }
    }
    float* orow = out + static_cast<std::size_t>(i) * M;
    for (int j = 0; j < M; ++j) orow[j] = acc0[j];
    if (rows > 1) for (int j = 0; j < M; ++j) orow[M + j] = acc1[j];
    if (rows > 2) for (int j = 0; j < M; ++j) orow[2 * M + j] = acc2[j];
    if (rows > 3) for (int j = 0; j < M; ++j) orow[3 * M + j] = acc3[j];
  }
}

void scalar_matmul(const float* a, const float* b, float* out, int n, int k, int m) {
  switch (m) {
    case 2: return matmul_fixed_width<2>(a, b, out, n, k);
    case 4: return matmul_fixed_width<4>(a, b, out, n, k);
    case 8: return matmul_fixed_width<8>(a, b, out, n, k);
    case 16: return matmul_fixed_width_x4<16>(a, b, out, n, k);
    case 32: return matmul_fixed_width_x4<32>(a, b, out, n, k);
    case 64: return matmul_fixed_width<64>(a, b, out, n, k);
    default: break;
  }
  // Generic ikj fallback for other widths (accumulates, so zero first).
  std::fill(out, out + static_cast<std::size_t>(n) * m, 0.0f);
  for (int i = 0; i < n; ++i) {
    float* orow = out + static_cast<std::size_t>(i) * m;
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      const float* brow = b + static_cast<std::size_t>(kk) * m;
      for (int j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Scalar blocked GEMM micro-kernel (gemm_blocked.h drives the blocking)
// ---------------------------------------------------------------------------

/// 4x8 register tile: 32 accumulators fit the 16 baseline-SSE2 XMM registers
/// when the compiler vectorizes the fixed-width inner loops, and the same
/// code auto-vectorizes to NEON on aarch64.
struct ScalarMicro {
  static constexpr int MR = 4;
  static constexpr int NR = 8;
  static void run(int kc, const float* __restrict pa, const float* __restrict pb,
                  float* __restrict c, int ldc, bool accumulate) {
    float acc[MR][NR] = {};
    for (int kk = 0; kk < kc; ++kk) {
      for (int r = 0; r < MR; ++r) {
        const float av = pa[r];
        for (int j = 0; j < NR; ++j) acc[r][j] += av * pb[j];
      }
      pa += MR;
      pb += NR;
    }
    for (int r = 0; r < MR; ++r) {
      float* crow = c + static_cast<std::size_t>(r) * ldc;
      if (accumulate) {
        for (int j = 0; j < NR; ++j) crow[j] += acc[r][j];
      } else {
        for (int j = 0; j < NR; ++j) crow[j] = acc[r][j];
      }
    }
  }
};

void scalar_gemm(const float* a, const float* b, float* out, int n, int k, int m) {
  detail::gemm_blocked<ScalarMicro>(a, b, out, n, k, m);
}

// ---------------------------------------------------------------------------
// Scalar fused-HGT primitives
// ---------------------------------------------------------------------------

/// All heads of one row in registers: the head blocks are independent, so a
/// compile-time head width lets every block's accumulator vectorize.
template <int HD>
void head_map_fixed(const float* __restrict x, int ldx, const float* __restrict w,
                    float* __restrict out, int n, int heads) {
  const int dim = heads * HD;
  for (int i = 0; i < n; ++i) {
    const float* xrow = x + static_cast<std::size_t>(i) * ldx;
    float* orow = out + static_cast<std::size_t>(i) * dim;
    for (int h = 0; h < heads; ++h) {
      float acc[HD] = {};
      const float* xh = xrow + h * HD;
      const float* wh = w + static_cast<std::size_t>(h) * HD * HD;
      for (int kk = 0; kk < HD; ++kk) {
        const float av = xh[kk];
        const float* wrow = wh + static_cast<std::size_t>(kk) * HD;
        for (int j = 0; j < HD; ++j) acc[j] += av * wrow[j];
      }
      float* oh = orow + h * HD;
      for (int j = 0; j < HD; ++j) oh[j] = acc[j];
    }
  }
}

void scalar_head_map(const float* x, int ldx, const float* w, float* out, int n, int heads,
                     int hd) {
  switch (hd) {
    case 2: return head_map_fixed<2>(x, ldx, w, out, n, heads);
    case 4: return head_map_fixed<4>(x, ldx, w, out, n, heads);
    case 8: return head_map_fixed<8>(x, ldx, w, out, n, heads);
    case 16: return head_map_fixed<16>(x, ldx, w, out, n, heads);
    default: break;
  }
  const int dim = heads * hd;
  for (int i = 0; i < n; ++i) {
    const float* xrow = x + static_cast<std::size_t>(i) * ldx;
    float* orow = out + static_cast<std::size_t>(i) * dim;
    for (int h = 0; h < heads; ++h) {
      const float* xh = xrow + h * hd;
      const float* wh = w + static_cast<std::size_t>(h) * hd * hd;
      float* oh = orow + h * hd;
      std::fill(oh, oh + hd, 0.0f);
      for (int kk = 0; kk < hd; ++kk) {
        const float av = xh[kk];
        const float* wrow = wh + static_cast<std::size_t>(kk) * hd;
        for (int j = 0; j < hd; ++j) oh[j] += av * wrow[j];
      }
    }
  }
}

float scalar_dot(const float* a, const float* b, int d) {
  float acc = 0.0f;
  for (int j = 0; j < d; ++j) acc += a[j] * b[j];
  return acc;
}

void scalar_row_dot(const float* a, const float* b, float* out, int n, int d) {
  for (int i = 0; i < n; ++i) {
    const std::size_t row = static_cast<std::size_t>(i) * d;
    out[i] = scalar_dot(a + row, b + row, d);
  }
}

void scalar_hgt_logits(const float* k_map, int ldk, const float* q, int ldq, const int* srcs,
                       const int* dsts, const int* metas, const float* mu, int count, int heads,
                       int hd, float scale, float* logits, float* node_max) {
  for (int p = 0; p < count; ++p) {
    const float* krow = k_map + static_cast<std::size_t>(srcs[p]) * ldk;
    const float* qrow = q + static_cast<std::size_t>(dsts[p]) * ldq;
    const float mu_e = mu[metas[p]];
    float* lrow = logits + static_cast<std::size_t>(p) * heads;
    float* mrow = node_max + static_cast<std::size_t>(dsts[p]) * heads;
    for (int h = 0; h < heads; ++h) {
      const float l = scalar_dot(krow + h * hd, qrow + h * hd, hd) * scale * mu_e;
      lrow[h] = l;
      mrow[h] = std::max(mrow[h], l);
    }
  }
}

void scalar_hgt_accumulate(const float* v_map, int ldv, const int* srcs, const int* dsts,
                           int count, const float* logits, const float* node_max, int heads,
                           int hd, float* out, float* denom) {
  const int dim = heads * hd;
  for (int p = 0; p < count; ++p) {
    const float* vrow = v_map + static_cast<std::size_t>(srcs[p]) * ldv;
    const float* lrow = logits + static_cast<std::size_t>(p) * heads;
    const float* mrow = node_max + static_cast<std::size_t>(dsts[p]) * heads;
    float* drow = denom + static_cast<std::size_t>(dsts[p]) * heads;
    float* orow = out + static_cast<std::size_t>(dsts[p]) * dim;
    for (int h = 0; h < heads; ++h) {
      const float w = fast_expf(lrow[h] - mrow[h]);
      drow[h] += w;
      const float* vv = vrow + h * hd;
      float* oo = orow + h * hd;
      for (int j = 0; j < hd; ++j) oo[j] += w * vv[j];
    }
  }
}

inline constexpr int kMaxHeadDim = 64;

void scalar_hgt_logits_direct(const float* k_all, int ldk, const float* q, int ldq,
                              const float* w_att, const int* srcs, const int* dsts,
                              const int* metas, const float* mu, int count, int heads, int hd,
                              float scale, float* logits, float* node_max) {
  float mk_stack[kMaxHeadDim];
  std::vector<float> mk_heap(hd > kMaxHeadDim ? static_cast<std::size_t>(hd) : 0);
  float* const mk = hd > kMaxHeadDim ? mk_heap.data() : mk_stack;
  for (int p = 0; p < count; ++p) {
    const float* krow = k_all + static_cast<std::size_t>(srcs[p]) * ldk;
    const float* qrow = q + static_cast<std::size_t>(dsts[p]) * ldq;
    const float mu_e = mu[metas[p]];
    float* lrow = logits + static_cast<std::size_t>(p) * heads;
    float* mrow = node_max + static_cast<std::size_t>(dsts[p]) * heads;
    for (int h = 0; h < heads; ++h) {
      const float* kh = krow + h * hd;
      const float* wh = w_att + static_cast<std::size_t>(h) * hd * hd;
      for (int j = 0; j < hd; ++j) mk[j] = 0.0f;
      for (int kk = 0; kk < hd; ++kk) {
        const float kv = kh[kk];
        const float* wrow = wh + static_cast<std::size_t>(kk) * hd;
        for (int j = 0; j < hd; ++j) mk[j] += kv * wrow[j];
      }
      const float l = scalar_dot(mk, qrow + h * hd, hd) * scale * mu_e;
      lrow[h] = l;
      mrow[h] = std::max(mrow[h], l);
    }
  }
}

void scalar_hgt_accumulate_direct(const float* v_all, int ldv, const float* w_msg,
                                  const int* srcs, const int* dsts, int count,
                                  const float* logits, const float* node_max, int heads, int hd,
                                  float* out, float* denom) {
  const int dim = heads * hd;
  float mv_stack[kMaxHeadDim];
  std::vector<float> mv_heap(hd > kMaxHeadDim ? static_cast<std::size_t>(hd) : 0);
  float* const mv = hd > kMaxHeadDim ? mv_heap.data() : mv_stack;
  for (int p = 0; p < count; ++p) {
    const float* vrow = v_all + static_cast<std::size_t>(srcs[p]) * ldv;
    const float* lrow = logits + static_cast<std::size_t>(p) * heads;
    const float* mrow = node_max + static_cast<std::size_t>(dsts[p]) * heads;
    float* drow = denom + static_cast<std::size_t>(dsts[p]) * heads;
    float* orow = out + static_cast<std::size_t>(dsts[p]) * dim;
    for (int h = 0; h < heads; ++h) {
      const float* vh = vrow + h * hd;
      const float* wh = w_msg + static_cast<std::size_t>(h) * hd * hd;
      for (int j = 0; j < hd; ++j) mv[j] = 0.0f;
      for (int kk = 0; kk < hd; ++kk) {
        const float vv = vh[kk];
        const float* wrow = wh + static_cast<std::size_t>(kk) * hd;
        for (int j = 0; j < hd; ++j) mv[j] += vv * wrow[j];
      }
      const float w = fast_expf(lrow[h] - mrow[h]);
      drow[h] += w;
      float* oo = orow + h * hd;
      for (int j = 0; j < hd; ++j) oo[j] += w * mv[j];
    }
  }
}

void scalar_gelu(const float* x, float* out, int n) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  constexpr float kA = 0.044715f;
  for (int i = 0; i < n; ++i) {
    const float v = x[i];
    out[i] = 0.5f * v * (1.0f + fast_tanhf(kC * (v + kA * v * v * v)));
  }
}

// ---------------------------------------------------------------------------
// Scalar segment kernels (check-free: ids validated by the caller)
// ---------------------------------------------------------------------------

void scalar_segment_softmax(const float* logits, const int* seg, int e, int num_segments,
                            float* out) {
  std::vector<float> seg_max(static_cast<std::size_t>(num_segments),
                             -std::numeric_limits<float>::infinity());
  for (int i = 0; i < e; ++i) {
    auto& m = seg_max[static_cast<std::size_t>(seg[i])];
    m = std::max(m, logits[i]);
  }
  std::vector<float> denom(static_cast<std::size_t>(num_segments), 0.0f);
  for (int i = 0; i < e; ++i) {
    const auto s = static_cast<std::size_t>(seg[i]);
    out[i] = fast_expf(logits[i] - seg_max[s]);
    denom[s] += out[i];
  }
  for (int i = 0; i < e; ++i) {
    out[i] /= std::max(denom[static_cast<std::size_t>(seg[i])], 1e-12f);
  }
}

void scalar_segment_sum_rows(const float* x, const int* seg, int n, int d, int num_segments,
                             float* out) {
  std::fill(out, out + static_cast<std::size_t>(num_segments) * d, 0.0f);
  for (int i = 0; i < n; ++i) {
    const float* src = x + static_cast<std::size_t>(i) * d;
    float* dst = out + static_cast<std::size_t>(seg[i]) * d;
    for (int j = 0; j < d; ++j) dst[j] += src[j];
  }
}

void scalar_segment_weighted_sum_rows(const float* x, const float* w, const int* seg, int n,
                                      int d, int num_segments, float* out) {
  std::fill(out, out + static_cast<std::size_t>(num_segments) * d, 0.0f);
  for (int i = 0; i < n; ++i) {
    const float wi = w[i];
    const float* src = x + static_cast<std::size_t>(i) * d;
    float* dst = out + static_cast<std::size_t>(seg[i]) * d;
    for (int j = 0; j < d; ++j) dst[j] += wi * src[j];
  }
}

constexpr Kernels kScalar = {
    "scalar",
    scalar_matmul,
    scalar_gemm,
    scalar_head_map,
    scalar_hgt_logits,
    scalar_hgt_accumulate,
    scalar_hgt_logits_direct,
    scalar_hgt_accumulate_direct,
    scalar_row_dot,
    scalar_gelu,
    scalar_segment_softmax,
    scalar_segment_sum_rows,
    scalar_segment_weighted_sum_rows,
};

// ---------------------------------------------------------------------------
// NEON (aarch64: baseline feature, no extra compile flags needed)
// ---------------------------------------------------------------------------

#if defined(__ARM_NEON)

float neon_dot(const float* a, const float* b, int d) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  int j = 0;
  for (; j + 4 <= d; j += 4) {
    acc = vmlaq_f32(acc, vld1q_f32(a + j), vld1q_f32(b + j));
  }
  float sum = vaddvq_f32(acc);
  for (; j < d; ++j) sum += a[j] * b[j];
  return sum;
}

void neon_row_dot(const float* a, const float* b, float* out, int n, int d) {
  for (int i = 0; i < n; ++i) {
    const std::size_t row = static_cast<std::size_t>(i) * d;
    out[i] = neon_dot(a + row, b + row, d);
  }
}

void neon_hgt_logits(const float* k_map, int ldk, const float* q, int ldq, const int* srcs,
                     const int* dsts, const int* metas, const float* mu, int count, int heads,
                     int hd, float scale, float* logits, float* node_max) {
  for (int p = 0; p < count; ++p) {
    const float* krow = k_map + static_cast<std::size_t>(srcs[p]) * ldk;
    const float* qrow = q + static_cast<std::size_t>(dsts[p]) * ldq;
    const float mu_e = mu[metas[p]];
    float* lrow = logits + static_cast<std::size_t>(p) * heads;
    float* mrow = node_max + static_cast<std::size_t>(dsts[p]) * heads;
    for (int h = 0; h < heads; ++h) {
      const float l = neon_dot(krow + h * hd, qrow + h * hd, hd) * scale * mu_e;
      lrow[h] = l;
      mrow[h] = std::max(mrow[h], l);
    }
  }
}

void neon_hgt_accumulate(const float* v_map, int ldv, const int* srcs, const int* dsts,
                         int count, const float* logits, const float* node_max, int heads,
                         int hd, float* out, float* denom) {
  const int dim = heads * hd;
  for (int p = 0; p < count; ++p) {
    const float* vrow = v_map + static_cast<std::size_t>(srcs[p]) * ldv;
    const float* lrow = logits + static_cast<std::size_t>(p) * heads;
    const float* mrow = node_max + static_cast<std::size_t>(dsts[p]) * heads;
    float* drow = denom + static_cast<std::size_t>(dsts[p]) * heads;
    float* orow = out + static_cast<std::size_t>(dsts[p]) * dim;
    for (int h = 0; h < heads; ++h) {
      const float w = fast_expf(lrow[h] - mrow[h]);
      drow[h] += w;
      const float* vv = vrow + h * hd;
      float* oo = orow + h * hd;
      int j = 0;
      const float32x4_t vw = vdupq_n_f32(w);
      for (; j + 4 <= hd; j += 4) {
        vst1q_f32(oo + j, vmlaq_f32(vld1q_f32(oo + j), vw, vld1q_f32(vv + j)));
      }
      for (; j < hd; ++j) oo[j] += w * vv[j];
    }
  }
}

/// Head blocks with hd % 4 == 0: accumulate each block 4 lanes at a time,
/// broadcasting x along k (ascending, matching the scalar reduction order).
void neon_head_map(const float* x, int ldx, const float* w, float* out, int n, int heads,
                   int hd) {
  if (hd % 4 != 0) return scalar_head_map(x, ldx, w, out, n, heads, hd);
  const int dim = heads * hd;
  for (int i = 0; i < n; ++i) {
    const float* xrow = x + static_cast<std::size_t>(i) * ldx;
    float* orow = out + static_cast<std::size_t>(i) * dim;
    for (int h = 0; h < heads; ++h) {
      const float* xh = xrow + h * hd;
      const float* wh = w + static_cast<std::size_t>(h) * hd * hd;
      float* oh = orow + h * hd;
      for (int j = 0; j < hd; j += 4) {
        float32x4_t acc = vdupq_n_f32(0.0f);
        for (int kk = 0; kk < hd; ++kk) {
          acc = vmlaq_n_f32(acc, vld1q_f32(wh + static_cast<std::size_t>(kk) * hd + j),
                            xh[kk]);
        }
        vst1q_f32(oh + j, acc);
      }
    }
  }
}

constexpr Kernels kNeon = {
    "neon",
    scalar_matmul,   // the tuned scalar kernels auto-vectorize on aarch64
    scalar_gemm,     // ScalarMicro's fixed-width tile vectorizes likewise
    neon_head_map,
    neon_hgt_logits,
    neon_hgt_accumulate,
    scalar_hgt_logits_direct,  // gather-free map: auto-vectorizes on aarch64
    scalar_hgt_accumulate_direct,
    neon_row_dot,
    scalar_gelu,  // aarch64 compilers auto-vectorize the polynomial well
    scalar_segment_softmax,
    scalar_segment_sum_rows,
    scalar_segment_weighted_sum_rows,
};

#endif  // __ARM_NEON

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const Kernels* resolve_auto() {
  if (cpu_has_avx2_fma()) {
    if (const Kernels* t = avx2_table()) return t;
  }
#if defined(__ARM_NEON)
  return &kNeon;
#endif
  return &kScalar;
}

const Kernels* resolve_from_env() {
  if (const char* e = std::getenv("G2P_BACKEND")) {
    const std::string_view want(e);
    if (!want.empty() && want != "auto") {
      if (const Kernels* t = by_name(want)) return t;
      std::fprintf(stderr, "g2p: G2P_BACKEND=%s unavailable, using auto dispatch\n", e);
    }
  }
  return resolve_auto();
}

std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

const Kernels* by_name(std::string_view name) {
  if (name == "scalar") return &kScalar;
  if (name == "auto") return resolve_auto();
  if (name == "avx2") return cpu_has_avx2_fma() ? avx2_table() : nullptr;
#if defined(__ARM_NEON)
  if (name == "neon") return &kNeon;
#else
  if (name == "neon") return nullptr;
#endif
  return nullptr;
}

const Kernels& active() {
  const Kernels* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    // Benign race: concurrent first calls resolve to the same table.
    t = resolve_from_env();
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

const Kernels& scalar() { return kScalar; }

const char* active_name() { return active().name; }

bool set_active(std::string_view name) {
  const Kernels* t = by_name(name);
  if (t == nullptr) return false;
  g_active.store(t, std::memory_order_release);
  return true;
}

namespace {

/// Where the blocked GEMM starts beating the legacy kernels: the packed
/// panels cost two extra passes over A and B, so tiny products stay on the
/// register-specialized paths, as do the narrow head matrices (m <= 8).
/// Thresholds picked by bench_gemm sweeps on the serving shapes.
bool gemm_profitable(int n, int k, int m) {
  if (m < 16 || n < 8 || k < 4) return false;
  return static_cast<std::size_t>(n) * static_cast<std::size_t>(k) *
             static_cast<std::size_t>(m) >=
         (1u << 15);
}

}  // namespace

void matmul_auto(const float* a, const float* b, float* out, int n, int k, int m) {
  const Kernels& kern = active();
  (gemm_profitable(n, k, m) ? kern.gemm : kern.matmul)(a, b, out, n, k, m);
}

}  // namespace g2p::backend
