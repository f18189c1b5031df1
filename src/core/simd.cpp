#include "core/simd.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/types.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define RECO_SIMD_X86 1
#include <immintrin.h>
#else
#define RECO_SIMD_X86 0
#endif

namespace reco::simd {

// ---------------------------------------------------------------------------
// Scalar tier: the reference semantics every other tier is pinned against.
// These are the exact loops the call sites used before the kernel layer.
// ---------------------------------------------------------------------------

namespace {

void scalar_gather(const double* src, const int* idx, int count, double* dst) {
  for (int k = 0; k < count; ++k) dst[k] = src[idx[k]];
}

double scalar_max_value(const double* v, int count, double init) {
  double m = init;
  for (int k = 0; k < count; ++k) {
    if (v[k] > m) m = v[k];
  }
  return m;
}

double scalar_max_gather(const double* src, const int* idx, int count, double init) {
  double m = init;
  for (int k = 0; k < count; ++k) {
    const double x = src[idx[k]];
    if (x > m) m = x;
  }
  return m;
}

double scalar_min_value(const double* v, int count, double init) {
  double m = init;
  for (int k = 0; k < count; ++k) {
    if (v[k] < m) m = v[k];
  }
  return m;
}

double scalar_max_value_leq(const double* v, int count, double cut, double init) {
  double m = init;
  for (int k = 0; k < count; ++k) {
    const double x = v[k];
    if (x <= cut && x > m) m = x;
  }
  return m;
}

int scalar_argmax(const double* v, int count) {
  if (count <= 0) return -1;
  int best = 0;
  for (int k = 1; k < count; ++k) {
    if (v[k] > v[best]) best = k;
  }
  return best;
}

void scalar_round_up_quantum(const double* v, int count, double quantum, double* out) {
  for (int k = 0; k < count; ++k) {
    const double q = std::ceil(v[k] / quantum - kTimeEps);
    out[k] = std::max(1.0, q) * quantum;
  }
}

void scalar_sub_clamp(double minuend, const double* v, int count, double* out) {
  for (int k = 0; k < count; ++k) out[k] = clamp_zero(minuend - v[k]);
}

int scalar_partition_greater(double* v, int count, double pivot) {
  int w = 0;
  for (int k = 0; k < count; ++k) {
    const double x = v[k];
    if (x > pivot) v[w++] = x;
  }
  return w;
}

int scalar_partition_keep_below(double* v, int count, double upper, double certify,
                                std::int64_t* certified) {
  int w = 0;
  std::int64_t c = 0;
  for (int k = 0; k < count; ++k) {
    const double x = v[k];
    if (x >= upper) continue;
    if (x > certify) {
      ++c;
      continue;
    }
    v[w++] = x;
  }
  *certified += c;
  return w;
}

constexpr Kernels kScalarKernels = {
    scalar_gather,         scalar_max_value,        scalar_max_gather,
    scalar_min_value,      scalar_max_value_leq,    scalar_argmax,
    scalar_round_up_quantum, scalar_sub_clamp,      scalar_partition_greater,
    scalar_partition_keep_below,
};

#if RECO_SIMD_X86

// ---------------------------------------------------------------------------
// SSE2 tier (x86-64 baseline — no target attribute needed).  Only kernels
// with a bit-identical 2-lane form are vectorized; the rest alias scalar.
// Lane merges with MAXPD/MINPD return the second operand on equal values,
// which matches the scalar `>`/`<` updates bit-for-bit because equal
// finite non-negative doubles share one representation (no -0.0 inputs —
// see the precondition in simd.hpp).
// ---------------------------------------------------------------------------

double sse2_max_value(const double* v, int count, double init) {
  int k = 0;
  double m = init;
  if (count >= 4) {
    __m128d acc0 = _mm_set1_pd(init);
    __m128d acc1 = acc0;
    for (; k + 4 <= count; k += 4) {
      acc0 = _mm_max_pd(acc0, _mm_loadu_pd(v + k));
      acc1 = _mm_max_pd(acc1, _mm_loadu_pd(v + k + 2));
    }
    const __m128d acc = _mm_max_pd(acc0, acc1);
    m = std::max(m, _mm_cvtsd_f64(acc));
    m = std::max(m, _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc)));
  }
  for (; k < count; ++k) {
    if (v[k] > m) m = v[k];
  }
  return m;
}

double sse2_min_value(const double* v, int count, double init) {
  int k = 0;
  double m = init;
  if (count >= 4) {
    __m128d acc0 = _mm_set1_pd(init);
    __m128d acc1 = acc0;
    for (; k + 4 <= count; k += 4) {
      acc0 = _mm_min_pd(acc0, _mm_loadu_pd(v + k));
      acc1 = _mm_min_pd(acc1, _mm_loadu_pd(v + k + 2));
    }
    const __m128d acc = _mm_min_pd(acc0, acc1);
    m = std::min(m, _mm_cvtsd_f64(acc));
    m = std::min(m, _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc)));
  }
  for (; k < count; ++k) {
    if (v[k] < m) m = v[k];
  }
  return m;
}

double sse2_max_value_leq(const double* v, int count, double cut, double init) {
  int k = 0;
  double m = init;
  if (count >= 2) {
    const __m128d vcut = _mm_set1_pd(cut);
    // Replace every lane above the cut with `init` so it cannot win.
    __m128d acc = _mm_set1_pd(init);
    const __m128d vinit = acc;
    for (; k + 2 <= count; k += 2) {
      const __m128d x = _mm_loadu_pd(v + k);
      const __m128d keep = _mm_cmple_pd(x, vcut);
      acc = _mm_max_pd(acc, _mm_or_pd(_mm_and_pd(keep, x), _mm_andnot_pd(keep, vinit)));
    }
    m = std::max(m, _mm_cvtsd_f64(acc));
    m = std::max(m, _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc)));
  }
  for (; k < count; ++k) {
    const double x = v[k];
    if (x <= cut && x > m) m = x;
  }
  return m;
}

int sse2_argmax(const double* v, int count) {
  if (count <= 0) return -1;
  const double mx = sse2_max_value(v, count, v[0]);
  const __m128d vmx = _mm_set1_pd(mx);
  int k = 0;
  for (; k + 2 <= count; k += 2) {
    const int mask = _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(v + k), vmx));
    if (mask != 0) return k + ((mask & 1) ? 0 : 1);
  }
  for (; k < count; ++k) {
    if (v[k] == mx) return k;
  }
  return 0;  // unreachable: mx is one of the elements
}

void sse2_sub_clamp(double minuend, const double* v, int count, double* out) {
  const __m128d vm = _mm_set1_pd(minuend);
  const __m128d eps = _mm_set1_pd(kTimeEps);
  const __m128d sign = _mm_set1_pd(-0.0);
  int k = 0;
  for (; k + 2 <= count; k += 2) {
    const __m128d d = _mm_sub_pd(vm, _mm_loadu_pd(v + k));
    // clamp_zero: |d| < kTimeEps -> exact 0.0.
    const __m128d keep = _mm_cmpge_pd(_mm_andnot_pd(sign, d), eps);
    _mm_storeu_pd(out + k, _mm_and_pd(keep, d));
  }
  for (; k < count; ++k) out[k] = clamp_zero(minuend - v[k]);
}

constexpr Kernels kSse2Kernels = {
    scalar_gather,         sse2_max_value,          scalar_max_gather,
    sse2_min_value,        sse2_max_value_leq,      sse2_argmax,
    scalar_round_up_quantum, sse2_sub_clamp,        scalar_partition_greater,
    scalar_partition_keep_below,
};

// ---------------------------------------------------------------------------
// AVX2 tier.  Compiled with per-function target attributes so the TU
// builds at the baseline -march; dispatch guarantees these only run when
// CPUID reports avx2.
// ---------------------------------------------------------------------------

__attribute__((target("avx2")))
void avx2_gather(const double* src, const int* idx, int count, double* dst) {
  int k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m128i vi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + k));
    _mm256_storeu_pd(dst + k, _mm256_i32gather_pd(src, vi, 8));
  }
  for (; k < count; ++k) dst[k] = src[idx[k]];
}

__attribute__((target("avx2")))
double avx2_max_value(const double* v, int count, double init) {
  int k = 0;
  double m = init;
  if (count >= 8) {
    __m256d acc0 = _mm256_set1_pd(init);
    __m256d acc1 = acc0;
    for (; k + 8 <= count; k += 8) {
      acc0 = _mm256_max_pd(acc0, _mm256_loadu_pd(v + k));
      acc1 = _mm256_max_pd(acc1, _mm256_loadu_pd(v + k + 4));
    }
    const __m256d acc = _mm256_max_pd(acc0, acc1);
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
    const __m128d mx2 = _mm_max_pd(lo, hi);
    m = std::max(m, _mm_cvtsd_f64(mx2));
    m = std::max(m, _mm_cvtsd_f64(_mm_unpackhi_pd(mx2, mx2)));
  }
  for (; k < count; ++k) {
    if (v[k] > m) m = v[k];
  }
  return m;
}

__attribute__((target("avx2")))
double avx2_max_gather(const double* src, const int* idx, int count, double init) {
  int k = 0;
  double m = init;
  if (count >= 4) {
    __m256d acc = _mm256_set1_pd(init);
    for (; k + 4 <= count; k += 4) {
      const __m128i vi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + k));
      acc = _mm256_max_pd(acc, _mm256_i32gather_pd(src, vi, 8));
    }
    const __m128d mx2 =
        _mm_max_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
    m = std::max(m, _mm_cvtsd_f64(mx2));
    m = std::max(m, _mm_cvtsd_f64(_mm_unpackhi_pd(mx2, mx2)));
  }
  for (; k < count; ++k) {
    const double x = src[idx[k]];
    if (x > m) m = x;
  }
  return m;
}

__attribute__((target("avx2")))
double avx2_min_value(const double* v, int count, double init) {
  int k = 0;
  double m = init;
  if (count >= 8) {
    __m256d acc0 = _mm256_set1_pd(init);
    __m256d acc1 = acc0;
    for (; k + 8 <= count; k += 8) {
      acc0 = _mm256_min_pd(acc0, _mm256_loadu_pd(v + k));
      acc1 = _mm256_min_pd(acc1, _mm256_loadu_pd(v + k + 4));
    }
    const __m256d acc = _mm256_min_pd(acc0, acc1);
    const __m128d mn2 =
        _mm_min_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
    m = std::min(m, _mm_cvtsd_f64(mn2));
    m = std::min(m, _mm_cvtsd_f64(_mm_unpackhi_pd(mn2, mn2)));
  }
  for (; k < count; ++k) {
    if (v[k] < m) m = v[k];
  }
  return m;
}

__attribute__((target("avx2")))
double avx2_max_value_leq(const double* v, int count, double cut, double init) {
  int k = 0;
  double m = init;
  if (count >= 4) {
    const __m256d vcut = _mm256_set1_pd(cut);
    const __m256d vinit = _mm256_set1_pd(init);
    __m256d acc = vinit;
    for (; k + 4 <= count; k += 4) {
      const __m256d x = _mm256_loadu_pd(v + k);
      const __m256d keep = _mm256_cmp_pd(x, vcut, _CMP_LE_OQ);
      acc = _mm256_max_pd(acc, _mm256_blendv_pd(vinit, x, keep));
    }
    const __m128d mx2 =
        _mm_max_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
    m = std::max(m, _mm_cvtsd_f64(mx2));
    m = std::max(m, _mm_cvtsd_f64(_mm_unpackhi_pd(mx2, mx2)));
  }
  for (; k < count; ++k) {
    const double x = v[k];
    if (x <= cut && x > m) m = x;
  }
  return m;
}

__attribute__((target("avx2")))
int avx2_argmax(const double* v, int count) {
  if (count <= 0) return -1;
  const double mx = avx2_max_value(v, count, v[0]);
  const __m256d vmx = _mm256_set1_pd(mx);
  int k = 0;
  for (; k + 4 <= count; k += 4) {
    const int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(v + k), vmx, _CMP_EQ_OQ));
    if (mask != 0) return k + __builtin_ctz(static_cast<unsigned>(mask));
  }
  for (; k < count; ++k) {
    if (v[k] == mx) return k;
  }
  return 0;  // unreachable: mx is one of the elements
}

__attribute__((target("avx2")))
void avx2_round_up_quantum(const double* v, int count, double quantum, double* out) {
  const __m256d vq = _mm256_set1_pd(quantum);
  const __m256d veps = _mm256_set1_pd(kTimeEps);
  const __m256d ones = _mm256_set1_pd(1.0);
  int k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256d x = _mm256_loadu_pd(v + k);
    const __m256d q = _mm256_round_pd(_mm256_sub_pd(_mm256_div_pd(x, vq), veps),
                                      _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
    // max(1.0, q): MAXPD returns the second operand on equality — both
    // are +1.0 there, so the result matches std::max(1.0, q) bit-for-bit.
    _mm256_storeu_pd(out + k, _mm256_mul_pd(_mm256_max_pd(ones, q), vq));
  }
  for (; k < count; ++k) {
    const double q = std::ceil(v[k] / quantum - kTimeEps);
    out[k] = std::max(1.0, q) * quantum;
  }
}

__attribute__((target("avx2")))
void avx2_sub_clamp(double minuend, const double* v, int count, double* out) {
  const __m256d vm = _mm256_set1_pd(minuend);
  const __m256d eps = _mm256_set1_pd(kTimeEps);
  const __m256d sign = _mm256_set1_pd(-0.0);
  int k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256d d = _mm256_sub_pd(vm, _mm256_loadu_pd(v + k));
    const __m256d keep = _mm256_cmp_pd(_mm256_andnot_pd(sign, d), eps, _CMP_GE_OQ);
    _mm256_storeu_pd(out + k, _mm256_and_pd(keep, d));
  }
  for (; k < count; ++k) out[k] = clamp_zero(minuend - v[k]);
}

/// Left-pack permutation per 4-bit keep mask: entry [mask] lists the epi32
/// lane pairs of the kept doubles in order (garbage beyond the popcount).
alignas(32) constexpr int kCompressLut[16][8] = {
    {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7}, {2, 3, 0, 1, 4, 5, 6, 7},
    {0, 1, 2, 3, 4, 5, 6, 7}, {4, 5, 0, 1, 2, 3, 6, 7}, {0, 1, 4, 5, 2, 3, 6, 7},
    {2, 3, 4, 5, 0, 1, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7}, {6, 7, 0, 1, 2, 3, 4, 5},
    {0, 1, 6, 7, 2, 3, 4, 5}, {2, 3, 6, 7, 0, 1, 4, 5}, {0, 1, 2, 3, 6, 7, 4, 5},
    {4, 5, 6, 7, 0, 1, 2, 3}, {0, 1, 4, 5, 6, 7, 2, 3}, {2, 3, 4, 5, 6, 7, 0, 1},
    {0, 1, 2, 3, 4, 5, 6, 7},
};

__attribute__((target("avx2")))
int avx2_partition_greater(double* v, int count, double pivot) {
  const __m256d vp = _mm256_set1_pd(pivot);
  int w = 0;
  int k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256d x = _mm256_loadu_pd(v + k);
    const int mask = _mm256_movemask_pd(_mm256_cmp_pd(x, vp, _CMP_GT_OQ));
    const __m256i perm =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kCompressLut[mask]));
    // The store lands at w <= k, entirely inside the already-read prefix,
    // so in-place compaction never clobbers unread input.
    _mm256_storeu_pd(v + w, _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
                                _mm256_castpd_si256(x), perm)));
    w += __builtin_popcount(static_cast<unsigned>(mask));
  }
  for (; k < count; ++k) {
    const double x = v[k];
    if (x > pivot) v[w++] = x;
  }
  return w;
}

__attribute__((target("avx2")))
int avx2_partition_keep_below(double* v, int count, double upper, double certify,
                              std::int64_t* certified) {
  const __m256d vu = _mm256_set1_pd(upper);
  const __m256d vc = _mm256_set1_pd(certify);
  int w = 0;
  int k = 0;
  std::int64_t c = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256d x = _mm256_loadu_pd(v + k);
    const int below = _mm256_movemask_pd(_mm256_cmp_pd(x, vu, _CMP_LT_OQ));
    const int low = _mm256_movemask_pd(_mm256_cmp_pd(x, vc, _CMP_LE_OQ));
    const int keep = below & low;          // v < upper && v <= certify
    c += __builtin_popcount(static_cast<unsigned>(below & ~low));  // certified drops
    const __m256i perm =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kCompressLut[keep]));
    _mm256_storeu_pd(v + w, _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
                                _mm256_castpd_si256(x), perm)));
    w += __builtin_popcount(static_cast<unsigned>(keep));
  }
  for (; k < count; ++k) {
    const double x = v[k];
    if (x >= upper) continue;
    if (x > certify) {
      ++c;
      continue;
    }
    v[w++] = x;
  }
  *certified += c;
  return w;
}

constexpr Kernels kAvx2Kernels = {
    avx2_gather,           avx2_max_value,          avx2_max_gather,
    avx2_min_value,        avx2_max_value_leq,      avx2_argmax,
    avx2_round_up_quantum, avx2_sub_clamp,          avx2_partition_greater,
    avx2_partition_keep_below,
};

#endif  // RECO_SIMD_X86

Level cpu_ceiling() {
#if RECO_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
  return Level::kSse2;  // SSE2 is the x86-64 baseline
#else
  return Level::kScalar;
#endif
}

Level resolve_level() {
  Level want = cpu_ceiling();
  if (const char* env = std::getenv("RECO_SIMD")) {
    std::string s(env);
    for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (s == "off" || s == "scalar" || s == "0") {
      want = Level::kScalar;
    } else if (s == "sse2") {
      want = Level::kSse2;
    } else if (s == "avx2") {
      want = Level::kAvx2;
    }  // "auto", "", unknown: keep the CPUID ceiling
  }
  // Never dispatch above what the CPU reports (a forced RECO_SIMD=avx2 on
  // an SSE2-only machine degrades instead of hitting SIGILL).
  if (static_cast<int>(want) > static_cast<int>(cpu_ceiling())) want = cpu_ceiling();
  return want;
}

}  // namespace

Level active_level() {
  static const Level level = resolve_level();
  return level;
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

std::vector<Level> supported_levels() {
  std::vector<Level> out{Level::kScalar};
#if RECO_SIMD_X86
  out.push_back(Level::kSse2);
  if (__builtin_cpu_supports("avx2")) out.push_back(Level::kAvx2);
#endif
  return out;
}

const Kernels& kernels_for(Level level) {
#if RECO_SIMD_X86
  if (level == Level::kAvx2) return kAvx2Kernels;
  if (level == Level::kSse2) return kSse2Kernels;
#else
  (void)level;
#endif
  return kScalarKernels;
}

const Kernels& kernels() {
  static const Kernels& k = kernels_for(active_level());
  return k;
}

}  // namespace reco::simd
