#include "core/simd.hpp"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#define RECO_X86 1
#include <immintrin.h>
#else
#define RECO_X86 0
#endif

namespace reco::simd {

// ---------------------------------------------------------------------------
// Scalar tier: the reference semantics every other tier is pinned against.
// These are the exact loops the call sites used before the kernel layer.
// ---------------------------------------------------------------------------

namespace {

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
    scalar_min_value,
    scalar_max_value_leq,
    scalar_partition_greater,
    scalar_partition_keep_below,
};

#if RECO_X86

// ---------------------------------------------------------------------------
// AVX2 tier.  Compiled with per-function target attributes so the TU
// builds at the baseline -march; dispatch guarantees these only run when
// CPUID reports avx2.
// ---------------------------------------------------------------------------

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
    avx2_min_value,
    avx2_max_value_leq,
    avx2_partition_greater,
    avx2_partition_keep_below,
};

#endif  // RECO_X86

bool cpu_has_avx2() {
#if RECO_X86
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

Level active_level() {
  static const Level level = cpu_has_avx2() ? Level::kAvx2 : Level::kScalar;
  return level;
}

const char* level_name(Level level) { return level == Level::kAvx2 ? "avx2" : "scalar"; }

std::vector<Level> supported_levels() {
  std::vector<Level> out{Level::kScalar};
  if (cpu_has_avx2()) out.push_back(Level::kAvx2);
  return out;
}

const Kernels& kernels_for(Level level) {
#if RECO_X86
  if (level == Level::kAvx2) return kAvx2Kernels;
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
