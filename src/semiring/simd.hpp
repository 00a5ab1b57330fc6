// Explicit SIMD substrate for the semiring hot loops.
//
// Two call sites dominate both phases of the system: the 64x64 tile
// rows of the blocked dense kernels (semiring/matrix.hpp, Algorithms
// 4.1/4.3) and the lane-major bucket sweeps of the source-batched
// leveled query (core/query_batch.hpp). Until now both leaned on
// compiler autovectorization of scalar loops, which is fragile across
// semirings and compilers; this layer replaces them with hand-written
// fixed-width vector kernels selected once at startup by runtime CPU
// dispatch.
//
// Tiers. Four implementations of every kernel are compiled into the
// library, each in its own translation unit with its own ISA flags:
//
//   kScalar  plain scalar loops: the one scalar definition of every
//            kernel, and the bit-identity oracle of the vector tiers
//   kSse     128-bit vectors (x86-64 baseline SSE2; portable fallback —
//            the same generic-vector code lowers to NEON on aarch64)
//   kAvx2    256-bit vectors, compiled with -mavx2
//   kAvx512  512-bit vectors, compiled with -mavx512{f,dq,bw,vl}
//
// The kernels are written against GCC/Clang fixed-width vector
// extensions (elementwise +, ?:, comparisons), NOT raw intrinsics: the
// language guarantees per-element semantics identical to the scalar
// operators, so every tier is bit-identical to the scalar reference by
// construction — the same guarantee PR 3 established for cache
// blocking, now extended across ISAs and enforced by tests/test_simd.
//
// Dispatch. simd::active_tier() is resolved once: the highest tier both
// compiled in (the AVX2/AVX-512 TUs build when the compiler accepts
// their flags; scalar and 128-bit always build) and supported by this
// CPU (CPUID), optionally lowered by the SEPSP_FORCE_ISA environment
// variable (scalar|sse|avx2|avx512; forcing above hardware/compile
// support clamps down). Tests may override it at runtime with
// force_tier(). The templated entry points below read the active tier
// per call (one relaxed atomic load per bucket sweep / tile row) and
// make one table call — the scalar tier included — so code compiled
// against this header never changes meaning, only speed.
//
// Alignment contract. Kernels use unaligned-tolerant loads; callers
// that want the aligned fast path allocate through AlignedVector
// (util/aligned.hpp, 64-byte base) so that every row whose stride is a
// multiple of the vector width stays aligned. No kernel reads past the
// extents it is handed — padding is a cache courtesy, not a
// correctness requirement.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "semiring/semiring.hpp"

namespace sepsp::simd {

/// Instruction-set tiers, ordered; dispatch picks the highest usable.
enum class Tier : std::uint8_t {
  kScalar = 0,
  kSse = 1,     ///< 128-bit generic vectors (SSE2 / NEON)
  kAvx2 = 2,    ///< 256-bit, requires AVX2
  kAvx512 = 3,  ///< 512-bit, requires AVX-512 F/DQ/BW/VL
};

/// Canonical lowercase tier name ("scalar", "sse", "avx2", "avx512").
const char* tier_name(Tier t);

/// Parses a tier name (the SEPSP_FORCE_ISA vocabulary). Returns false
/// on unknown input, leaving *out untouched.
bool parse_tier(std::string_view name, Tier* out);

/// Highest tier compiled into this binary (at least kSse).
Tier compiled_tier();

/// Highest tier this machine can run: compiled_tier() clamped by CPUID.
/// Resolved once per process.
Tier detected_tier();

/// The tier the dispatched kernels currently use. Initialized to
/// detected_tier() lowered by SEPSP_FORCE_ISA (if set and parsable).
Tier active_tier();

/// Test/bench hook: re-points dispatch at `t` (clamped to
/// detected_tier(); you cannot force a tier the machine cannot run).
/// Returns the tier actually installed. Affects subsequent kernel
/// calls process-wide.
Tier force_tier(Tier t);

// --- kernel function table ---------------------------------------------
// One entry per (kernel, semiring kind). Kinds cover the value domains
// the shipped semirings relax over:
//   minplus_d  double    min / +            (TropicalD)
//   minplus_i  int64     min / saturating + (TropicalI)
//   maxmin_d   double    max / min          (BottleneckSR)
//   orand_b    uint8     or / and           (BooleanSR)
//
// Kernel shapes (V = kind's value type):
//   tile_row(o, b, a, n):      o[j] = combine(o[j], extend(a, b[j])),
//                              the blocked kernels' innermost row.
//                              Caller guarantees a != zero() for the
//                              double kinds (the tile loops skip zero
//                              aik); the int/bool kinds are total.
//   combine_row(dst, src, n):  dst[j] = combine(dst[j], src[j]);
//                              returns nonzero iff any improves() —
//                              square_step's fused change detection.
//   sweep(dist, from, to, value, m, lanes):
//                              for each edge i, relax `lanes`
//                              contiguous lanes at dist[to[i]*lanes..]
//                              from dist[from[i]*lanes..] through
//                              relax_extend — one batched-query bucket
//                              pass. lanes <= 64.
//   sweep_tracked(..., changed): same, OR-ing per-lane improvement
//                              flags into changed[0..lanes).
struct KernelTable {
  void (*tile_row_minplus_d)(double*, const double*, double, std::size_t);
  int (*combine_row_minplus_d)(double*, const double*, std::size_t);
  void (*sweep_minplus_d)(double*, const std::uint32_t*, const std::uint32_t*,
                          const double*, std::size_t, std::size_t);
  void (*sweep_tracked_minplus_d)(double*, const std::uint32_t*,
                                  const std::uint32_t*, const double*,
                                  std::size_t, std::size_t, std::uint8_t*);

  void (*tile_row_minplus_i)(long long*, const long long*, long long,
                             std::size_t);
  int (*combine_row_minplus_i)(long long*, const long long*, std::size_t);
  void (*sweep_minplus_i)(long long*, const std::uint32_t*,
                          const std::uint32_t*, const long long*, std::size_t,
                          std::size_t);
  void (*sweep_tracked_minplus_i)(long long*, const std::uint32_t*,
                                  const std::uint32_t*, const long long*,
                                  std::size_t, std::size_t, std::uint8_t*);

  void (*tile_row_maxmin_d)(double*, const double*, double, std::size_t);
  int (*combine_row_maxmin_d)(double*, const double*, std::size_t);
  void (*sweep_maxmin_d)(double*, const std::uint32_t*, const std::uint32_t*,
                         const double*, std::size_t, std::size_t);
  void (*sweep_tracked_maxmin_d)(double*, const std::uint32_t*,
                                 const std::uint32_t*, const double*,
                                 std::size_t, std::size_t, std::uint8_t*);

  void (*tile_row_orand_b)(unsigned char*, const unsigned char*, unsigned char,
                           std::size_t);
  int (*combine_row_orand_b)(unsigned char*, const unsigned char*,
                             std::size_t);
  void (*sweep_orand_b)(unsigned char*, const std::uint32_t*,
                        const std::uint32_t*, const unsigned char*,
                        std::size_t, std::size_t);
  void (*sweep_tracked_orand_b)(unsigned char*, const std::uint32_t*,
                                const std::uint32_t*, const unsigned char*,
                                std::size_t, std::size_t, std::uint8_t*);
};

/// The kernel set for a tier. Tiers not compiled in alias the next
/// lower compiled tier, so indexing any Tier value is always safe.
const KernelTable& table(Tier t);

/// Maps a shipped semiring to its KernelTable members. Every semiring
/// the dispatch wrappers below accept needs a specialization.
template <typename S>
struct KindTraits;

template <>
struct KindTraits<TropicalD> {
  static constexpr auto kTileRow = &KernelTable::tile_row_minplus_d;
  static constexpr auto kCombineRow = &KernelTable::combine_row_minplus_d;
  static constexpr auto kSweep = &KernelTable::sweep_minplus_d;
  static constexpr auto kSweepTracked = &KernelTable::sweep_tracked_minplus_d;
};
template <>
struct KindTraits<TropicalI> {
  static constexpr auto kTileRow = &KernelTable::tile_row_minplus_i;
  static constexpr auto kCombineRow = &KernelTable::combine_row_minplus_i;
  static constexpr auto kSweep = &KernelTable::sweep_minplus_i;
  static constexpr auto kSweepTracked = &KernelTable::sweep_tracked_minplus_i;
};
template <>
struct KindTraits<BottleneckSR> {
  static constexpr auto kTileRow = &KernelTable::tile_row_maxmin_d;
  static constexpr auto kCombineRow = &KernelTable::combine_row_maxmin_d;
  static constexpr auto kSweep = &KernelTable::sweep_maxmin_d;
  static constexpr auto kSweepTracked = &KernelTable::sweep_tracked_maxmin_d;
};
template <>
struct KindTraits<BooleanSR> {
  static constexpr auto kTileRow = &KernelTable::tile_row_orand_b;
  static constexpr auto kCombineRow = &KernelTable::combine_row_orand_b;
  static constexpr auto kSweep = &KernelTable::sweep_orand_b;
  static constexpr auto kSweepTracked = &KernelTable::sweep_tracked_orand_b;
};

// --- dispatched entry points -------------------------------------------
// Each reads active_tier() once per call (one relaxed atomic load per
// tile row / bucket sweep) and calls that tier's table entry. The
// scalar tier is a table entry like any other: simd_scalar.cpp is the
// one scalar definition of every kernel.

/// Blocked-kernel tile row: o[j] = combine(o[j], extend(a, b[j])).
/// Contract for the floating-point kinds: a != S::zero() (the tile
/// loops skip zero aik before reaching here).
template <Semiring S>
inline void tile_row(typename S::Value* o, const typename S::Value* b,
                     typename S::Value a, std::size_t n) {
  (table(active_tier()).*KindTraits<S>::kTileRow)(o, b, a, n);
}

/// Fused combine + change detection over one row (square_step's merge
/// pass): dst[j] = combine(dst[j], src[j]); true iff any improves().
template <Semiring S>
inline bool combine_row(typename S::Value* dst, const typename S::Value* src,
                        std::size_t n) {
  return (table(active_tier()).*KindTraits<S>::kCombineRow)(dst, src, n) != 0;
}

/// One bucket pass of the lane-batched query: for every edge, relax
/// `lanes` contiguous lanes of the lane-major dist matrix. lanes <= 64.
template <Semiring S>
inline void bucket_sweep(typename S::Value* dist, const std::uint32_t* from,
                         const std::uint32_t* to,
                         const typename S::Value* value, std::size_t m,
                         std::size_t lanes) {
  (table(active_tier()).*KindTraits<S>::kSweep)(dist, from, to, value, m,
                                                 lanes);
}

/// bucket_sweep recording per-lane improvement into changed[0..lanes)
/// (OR-semantics; callers zero the array per pass).
template <Semiring S>
inline void bucket_sweep_tracked(typename S::Value* dist,
                                 const std::uint32_t* from,
                                 const std::uint32_t* to,
                                 const typename S::Value* value, std::size_t m,
                                 std::size_t lanes, std::uint8_t* changed) {
  (table(active_tier()).*KindTraits<S>::kSweepTracked)(dist, from, to, value,
                                                        m, lanes, changed);
}

}  // namespace sepsp::simd
