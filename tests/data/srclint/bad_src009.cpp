// srclint fixture: POBP-SRC-009 — raw ISA intrinsics, banned on every
// path.  Linted with
// --as-path src/schedule/kernels.cpp --rule POBP-SRC-009; must yield
// exit 1 with findings.
#include <cstdint>

// An x86-only inner loop: the __m128i type and _mm_* calls pin this file
// to SSE2.
std::int64_t sum_pairs(const std::int64_t* p, int n) {
  __m128i acc = _mm_setzero_si128();                              // finding
  for (int i = 0; i + 2 <= n; i += 2) {
    acc = _mm_add_epi64(                                          // finding
        acc, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i)));
  }
  alignas(16) std::int64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);        // finding
  return lanes[0] + lanes[1];
}

// The NEON spelling of the same defect.
std::int64_t sum_neon(const std::int64_t* p) {
  return vgetq_lane_s64(vld1q_s64(p), 0);                         // finding
}
