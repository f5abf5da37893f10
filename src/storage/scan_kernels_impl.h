#ifndef ASSESS_STORAGE_SCAN_KERNELS_IMPL_H_
#define ASSESS_STORAGE_SCAN_KERNELS_IMPL_H_

// Template bodies of the fused scan→aggregate kernels, included by one
// translation unit per instruction-set tier (scan_kernels.cc for scalar,
// scan_kernels_sse42.cc / scan_kernels_avx2.cc built with the matching -m
// flags — the __SSE4_2__/__AVX2__ guards below see those flags).
//
// The tier-specific code is confined to three primitives:
//   Isa::ComputeKeys      — group keys + pass bitmap for a run of rows
//   Isa::ClaimKeys        — key ownership + slots of the owner-partitioned
//                           kernel (KeyPartition's exact quotient in every
//                           tier)
//   Isa::LaneAccumulate   — the no-group-by fixed-lane partial accumulators
// Everything stateful — dense group assignment, first-seen coordinate
// decode, key ownership, measure accumulation — is the shared scalar code
// below, executed in row order in every tier, which is what makes the tiers
// bit-identical. Two bodies are instantiated per tier: FusedScanImpl (one
// morsel into its own partial) and OwnedScanImpl (one key partition's rows
// of a morsel into accumulators indexed by key slot).

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <vector>

#include "storage/scan_kernels.h"

#if defined(__SSE4_2__) || defined(__AVX2__)
#include <immintrin.h>
#endif

namespace assess {
namespace kernel_detail {

/// Rows per kernel block: key/bitmap buffers live in L1/L2 (16 KiB of keys)
/// and the block length is a multiple of 64 (whole bitmap words) and of
/// kAccLanes (lane phase never breaks inside a block).
inline constexpr int64_t kKernelBlock = 4096;

inline double InitialAccumulator(AggOp op) {
  switch (op) {
    case AggOp::kSum:
    case AggOp::kAvg:
    case AggOp::kCount:
      return 0.0;
    case AggOp::kMin:
      return std::numeric_limits<double>::infinity();
    case AggOp::kMax:
      return -std::numeric_limits<double>::infinity();
  }
  return 0.0;
}

inline int32_t CodeOf(const KernelColumn& col, int64_t row) {
  return col.packed != nullptr ? col.packed->CodeAt(row) : col.codes32[row];
}

/// Scalar reference for keys + pass bits over rows [row0, row0 + n); also
/// the tail path of the vector tiers, so its integer arithmetic *is* the
/// kernel's definition of a key. Bits are OR-ed into `bitmap`, which must
/// be zeroed beforehand.
inline void ComputeKeysScalar(const std::vector<KernelColumn>& cols,
                              int64_t row0, int64_t i0, int64_t n,
                              uint32_t* keys, uint64_t* bitmap) {
  for (int64_t i = i0; i < n; ++i) {
    uint32_t key = 1;
    uint32_t rej = 0;
    for (const KernelColumn& c : cols) {
      uint32_t lane = c.lane[CodeOf(c, row0 + i)];
      rej |= lane;
      key += lane;
    }
    keys[i] = key;
    if ((rej & kLaneReject) == 0) {
      bitmap[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

/// Scalar reference for the owner-partitioned claim over keys [i0, n):
/// every key rewritten into its KeyPartition slot, the pass bits of keys
/// the partition does not own cleared. Also the tail path of the AVX2 tier.
inline void ClaimKeysScalar(const KeyPartition& part, uint32_t* keys,
                            int64_t i0, int64_t n, uint64_t* bitmap) {
  for (int64_t i = i0; i < n; ++i) {
    const uint64_t owned = part.Claim(&keys[i]) ? 1 : 0;
    bitmap[i >> 6] &= ~((owned ^ 1) << (i & 63));
  }
}

/// Folds source row `r` of every measure into accumulator slot `slot` —
/// the one floating-point accumulate every dense path (per-morsel and
/// owner-partitioned, every tier) shares, so a slot that sees the same rows
/// in the same order holds the same bits whichever path filled it.
/// `cnt[m]` is touched for avg measures only.
inline void FoldMeasures(const FusedScanArgs& args, uint32_t slot, int64_t r,
                         std::vector<std::vector<double>>& acc,
                         std::vector<std::vector<int64_t>>& cnt) {
  const int num_measures = static_cast<int>(args.measures.size());
  for (int m = 0; m < num_measures; ++m) {
    const KernelMeasure& km = args.measures[m];
    const double v = km.source != nullptr ? km.source[r] : 0.0;
    switch (km.op) {
      case AggOp::kSum:
        acc[m][slot] += v;
        break;
      case AggOp::kAvg:
        acc[m][slot] += v;
        cnt[m][slot] += 1;
        break;
      case AggOp::kMin:
        acc[m][slot] = std::min(acc[m][slot], v);
        break;
      case AggOp::kMax:
        acc[m][slot] = std::max(acc[m][slot], v);
        break;
      case AggOp::kCount:
        acc[m][slot] += 1;
        break;
    }
  }
}

/// Folds one passing row into `state`: first-seen group assignment through
/// the dense key→group array, coordinate decode from the key, then the
/// measure accumulate. The single definition every per-morsel dense path
/// shares — the block-staged vector tiers and the single-pass scalar tier
/// both funnel passing rows through here in row order, which is what makes
/// them bit-identical.
inline void AccumulateRow(const FusedScanArgs& args, uint32_t key, int64_t r,
                          AggState* state) {
  const int num_grouped = static_cast<int>(args.groups.size());
  const int num_measures = static_cast<int>(args.measures.size());
  int32_t group = state->dense[key];
  if (group < 0) {
    group = state->num_groups++;
    state->dense[key] = group;
    const uint32_t k0 = key - 1;
    for (int gi = 0; gi < num_grouped; ++gi) {
      const KernelGroup& kg = args.groups[gi];
      state->out_coords[gi].push_back(
          static_cast<MemberId>((k0 / kg.radix) % kg.card1) - 1);
    }
    for (int m = 0; m < num_measures; ++m) {
      state->acc[m].push_back(InitialAccumulator(args.measures[m].op));
      if (args.measures[m].op == AggOp::kAvg) state->cnt[m].push_back(0);
    }
  }
  FoldMeasures(args, static_cast<uint32_t>(group), r, state->acc, state->cnt);
}

/// Whether the single-measure kSum fast path of the accumulate loops
/// applies. That shape — one summed measure, groups resolved through the
/// dense array — is the archetypal OLAP scan, and special-casing it keeps
/// the accumulator base pointer and dense array in registers instead of
/// re-deriving them through AggState for every passing row.
inline bool SingleSumShape(const FusedScanArgs& args) {
  return args.measures.size() == 1 && args.measures[0].op == AggOp::kSum &&
         args.measures[0].source != nullptr;
}

/// The vector tiers' accumulation phase: walks the pass bitmap in row
/// order, handing each passing row to AccumulateRow.
inline void AccumulateBlock(const FusedScanArgs& args, int64_t row0,
                            int64_t n, const uint32_t* keys,
                            const uint64_t* bitmap, AggState* state) {
  const int64_t words = (n + 63) >> 6;
  if (SingleSumShape(args)) {
    // Same adds in the same row order as the generic loop below — first-
    // seen keys detour through AccumulateRow (which may reallocate acc, so
    // the raw pointer is re-fetched), everything else stays in registers.
    const double* src = args.measures[0].source;
    const int32_t* dense = state->dense.data();
    double* acc = state->acc[0].data();
    for (int64_t w = 0; w < words; ++w) {
      uint64_t bits = bitmap[w];
      state->rows_passed += std::popcount(bits);
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const int64_t i = (w << 6) + b;
        const int32_t group = dense[keys[i]];
        if (group >= 0) {
          acc[group] += src[row0 + i];
        } else {
          AccumulateRow(args, keys[i], row0 + i, state);
          acc = state->acc[0].data();
        }
      }
    }
    return;
  }
  for (int64_t w = 0; w < words; ++w) {
    uint64_t bits = bitmap[w];
    state->rows_passed += std::popcount(bits);
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const int64_t i = (w << 6) + b;
      AccumulateRow(args, keys[i], row0 + i, state);
    }
  }
}

/// The scalar tier's dense path: one pass, no key/bitmap staging buffers —
/// without vector key computation the staging costs more than it saves.
/// Rows flow through the same key arithmetic (ComputeKeysScalar's) and the
/// same AccumulateRow in the same order, so output bits match the staged
/// vector tiers exactly.
inline void DenseScanScalar(const FusedScanArgs& args, int64_t begin,
                            int64_t end, AggState* state) {
  if (SingleSumShape(args)) {
    const double* src = args.measures[0].source;
    const int32_t* dense = state->dense.data();
    double* acc = state->acc[0].data();
    int64_t passed = 0;
    for (int64_t r = begin; r < end; ++r) {
      uint32_t key = 1;
      uint32_t rej = 0;
      for (const KernelColumn& c : args.columns) {
        const uint32_t lane = c.lane[CodeOf(c, r)];
        rej |= lane;
        key += lane;
      }
      if ((rej & kLaneReject) != 0) continue;
      ++passed;
      const int32_t group = dense[key];
      if (group >= 0) {
        acc[group] += src[r];
      } else {
        AccumulateRow(args, key, r, state);
        acc = state->acc[0].data();
      }
    }
    state->rows_passed += passed;
    return;
  }
  for (int64_t r = begin; r < end; ++r) {
    uint32_t key = 1;
    uint32_t rej = 0;
    for (const KernelColumn& c : args.columns) {
      const uint32_t lane = c.lane[CodeOf(c, r)];
      rej |= lane;
      key += lane;
    }
    if ((rej & kLaneReject) != 0) continue;
    ++state->rows_passed;
    AccumulateRow(args, key, r, state);
  }
}

/// Per-measure fixed-lane partials of the no-group-by path.
struct LaneAcc {
  std::array<double, kAccLanes> sum{};
  std::array<int64_t, kAccLanes> count{};
};

#if defined(__SSE4_2__) || defined(__AVX2__)
template <class Isa>
int64_t LaneAccumulateVec(const FusedScanArgs& args, int64_t begin,
                          int64_t end, std::vector<LaneAcc>* lanes);
#endif

/// Merges the lane partials into group 0 of `state`, lanes 0→kAccLanes in
/// order — the deterministic reduction every tier shares.
inline void FoldLanes(const FusedScanArgs& args,
                      const std::vector<LaneAcc>& lanes, int64_t passed,
                      AggState* state) {
  state->rows_passed += passed;
  if (passed == 0) return;  // mirror the hash kernel: no row, no group
  const int num_measures = static_cast<int>(args.measures.size());
  state->num_groups = 1;
  for (int m = 0; m < num_measures; ++m) {
    double total = lanes[m].sum[0];
    for (int l = 1; l < kAccLanes; ++l) total += lanes[m].sum[l];
    int64_t count = 0;
    for (int l = 0; l < kAccLanes; ++l) count += lanes[m].count[l];
    state->acc[m].push_back(total);
    if (args.measures[m].op == AggOp::kAvg) state->cnt[m].push_back(count);
  }
}

// -- scalar tier ------------------------------------------------------------

struct IsaScalar {
  static constexpr SimdLevel kLevel = SimdLevel::kScalar;

  static void ComputeKeys(const std::vector<KernelColumn>& cols, int64_t row0,
                          int64_t n, uint32_t* keys, uint64_t* bitmap) {
    std::memset(bitmap, 0, static_cast<size_t>((n + 63) >> 6) * 8);
    ComputeKeysScalar(cols, row0, 0, n, keys, bitmap);
  }

  static void ClaimKeys(const KeyPartition& part, uint32_t* keys, int64_t n,
                        uint64_t* bitmap) {
    ClaimKeysScalar(part, keys, 0, n, bitmap);
  }

  /// The scalar mirror of the vector lane accumulators: same row→lane
  /// assignment ((r − begin) & 3), same per-lane addition order.
  static int64_t LaneAccumulate(const FusedScanArgs& args, int64_t begin,
                                int64_t end, std::vector<LaneAcc>* lanes) {
    const int num_measures = static_cast<int>(args.measures.size());
    int64_t passed = 0;
    for (int64_t r = begin; r < end; ++r) {
      bool pass = true;
      for (const KernelColumn& c : args.columns) {
        if ((c.lane[CodeOf(c, r)] & kLaneReject) != 0) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      ++passed;
      const int lane = static_cast<int>((r - begin) & (kAccLanes - 1));
      for (int m = 0; m < num_measures; ++m) {
        const KernelMeasure& km = args.measures[m];
        switch (km.op) {
          case AggOp::kSum:
            (*lanes)[m].sum[lane] += km.source[r];
            break;
          case AggOp::kAvg:
            (*lanes)[m].sum[lane] += km.source[r];
            (*lanes)[m].count[lane] += 1;
            break;
          case AggOp::kCount:
            (*lanes)[m].sum[lane] += 1.0;
            break;
          case AggOp::kMin:
          case AggOp::kMax:
            break;  // never lane-accumulated (DensePath handles them)
        }
      }
    }
    return passed;
  }

  static void MinMax(const int32_t* v, int64_t n, int32_t* lo, int32_t* hi) {
    int32_t mn = v[0];
    int32_t mx = v[0];
    for (int64_t i = 1; i < n; ++i) {
      mn = std::min(mn, v[i]);
      mx = std::max(mx, v[i]);
    }
    *lo = mn;
    *hi = mx;
  }
};

// -- SSE4.2 tier ------------------------------------------------------------

#if defined(__SSE4_2__)

struct IsaSse42 {
  static constexpr SimdLevel kLevel = SimdLevel::kSSE42;

  static __m128i LoadCodes4(const KernelColumn& col, int64_t row) {
    if (col.packed == nullptr) {
      return _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(col.codes32 + row));
    }
    const uint8_t* base = col.packed->data();
    switch (col.packed->width()) {
      case PackedColumn::Width::kU8: {
        uint32_t four = 0;
        std::memcpy(&four, base + row, 4);
        return _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(four)));
      }
      case PackedColumn::Width::kU16:
        return _mm_cvtepu16_epi32(_mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(base + row * 2)));
      case PackedColumn::Width::kU32:
        return _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(base + row * 4));
    }
    return _mm_setzero_si128();
  }

  /// No gather below AVX2: lane lookups are 4 scalar loads packed back into
  /// a vector; the adds, reject test and bitmap write stay vectorized.
  static __m128i GatherLanes(const uint32_t* lane, __m128i codes) {
    return _mm_set_epi32(
        static_cast<int>(lane[_mm_extract_epi32(codes, 3)]),
        static_cast<int>(lane[_mm_extract_epi32(codes, 2)]),
        static_cast<int>(lane[_mm_extract_epi32(codes, 1)]),
        static_cast<int>(lane[_mm_extract_epi32(codes, 0)]));
  }

  static void ComputeKeys(const std::vector<KernelColumn>& cols, int64_t row0,
                          int64_t n, uint32_t* keys, uint64_t* bitmap) {
    std::memset(bitmap, 0, static_cast<size_t>((n + 63) >> 6) * 8);
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      __m128i key = _mm_set1_epi32(1);
      __m128i rej = _mm_setzero_si128();
      for (const KernelColumn& c : cols) {
        __m128i lanes = GatherLanes(c.lane, LoadCodes4(c, row0 + i));
        rej = _mm_or_si128(rej, lanes);
        key = _mm_add_epi32(key, lanes);
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(keys + i), key);
      const uint64_t pass =
          static_cast<uint64_t>(~_mm_movemask_ps(_mm_castsi128_ps(rej))) &
          0xF;
      bitmap[i >> 6] |= pass << (i & 63);
    }
    ComputeKeysScalar(cols, row0, i, n, keys, bitmap);
  }

  static void ClaimKeys(const KeyPartition& part, uint32_t* keys, int64_t n,
                        uint64_t* bitmap) {
    ClaimKeysScalar(part, keys, 0, n, bitmap);
  }

  static int64_t LaneAccumulate(const FusedScanArgs& args, int64_t begin,
                                int64_t end, std::vector<LaneAcc>* lanes) {
    return LaneAccumulateVec<IsaSse42>(args, begin, end, lanes);
  }

  /// kAccLanes = 4 mapped onto two 2-lane registers: lanes {0,1} and {2,3}.
  struct LaneRegs {
    __m128d lo, hi;
    __m128d cnt_lo, cnt_hi;

    void Load(const LaneAcc& a) {
      lo = _mm_loadu_pd(a.sum.data());
      hi = _mm_loadu_pd(a.sum.data() + 2);
      alignas(16) double c[kAccLanes];
      for (int l = 0; l < kAccLanes; ++l) {
        c[l] = static_cast<double>(a.count[l]);
      }
      cnt_lo = _mm_loadu_pd(c);
      cnt_hi = _mm_loadu_pd(c + 2);
    }
    void Store(LaneAcc* a) const {
      _mm_storeu_pd(a->sum.data(), lo);
      _mm_storeu_pd(a->sum.data() + 2, hi);
      alignas(16) double c[kAccLanes];
      _mm_storeu_pd(c, cnt_lo);
      _mm_storeu_pd(c + 2, cnt_hi);
      for (int l = 0; l < kAccLanes; ++l) {
        a->count[l] = static_cast<int64_t>(c[l]);
      }
    }
    void MaskedAdd(const double* src, uint32_t nibble, AggOp op) {
      const __m128d mask_lo = NibbleMaskLo(nibble);
      const __m128d mask_hi = NibbleMaskHi(nibble);
      if (op == AggOp::kSum || op == AggOp::kAvg) {
        lo = _mm_add_pd(lo, _mm_and_pd(_mm_loadu_pd(src), mask_lo));
        hi = _mm_add_pd(hi, _mm_and_pd(_mm_loadu_pd(src + 2), mask_hi));
      }
      if (op == AggOp::kAvg || op == AggOp::kCount) {
        const __m128d one = _mm_set1_pd(1.0);
        __m128d* c_lo = op == AggOp::kCount ? &lo : &cnt_lo;
        __m128d* c_hi = op == AggOp::kCount ? &hi : &cnt_hi;
        *c_lo = _mm_add_pd(*c_lo, _mm_and_pd(one, mask_lo));
        *c_hi = _mm_add_pd(*c_hi, _mm_and_pd(one, mask_hi));
      }
    }

   private:
    static __m128d NibbleMaskLo(uint32_t nibble) {
      return _mm_castsi128_pd(_mm_set_epi64x(
          nibble & 2 ? -1 : 0, nibble & 1 ? -1 : 0));
    }
    static __m128d NibbleMaskHi(uint32_t nibble) {
      return _mm_castsi128_pd(_mm_set_epi64x(
          nibble & 8 ? -1 : 0, nibble & 4 ? -1 : 0));
    }
  };

  static void MinMax(const int32_t* v, int64_t n, int32_t* lo, int32_t* hi) {
    if (n < 8) {
      IsaScalar::MinMax(v, n, lo, hi);
      return;
    }
    __m128i mn = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v));
    __m128i mx = mn;
    int64_t i = 4;
    for (; i + 4 <= n; i += 4) {
      __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
      mn = _mm_min_epi32(mn, x);
      mx = _mm_max_epi32(mx, x);
    }
    alignas(16) int32_t mins[4];
    alignas(16) int32_t maxs[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(mins), mn);
    _mm_store_si128(reinterpret_cast<__m128i*>(maxs), mx);
    int32_t best_lo = mins[0];
    int32_t best_hi = maxs[0];
    for (int l = 1; l < 4; ++l) {
      best_lo = std::min(best_lo, mins[l]);
      best_hi = std::max(best_hi, maxs[l]);
    }
    for (; i < n; ++i) {
      best_lo = std::min(best_lo, v[i]);
      best_hi = std::max(best_hi, v[i]);
    }
    *lo = best_lo;
    *hi = best_hi;
  }
};

#endif  // __SSE4_2__

// -- AVX2 tier --------------------------------------------------------------

#if defined(__AVX2__)

struct IsaAvx2 {
  static constexpr SimdLevel kLevel = SimdLevel::kAVX2;

  static __m256i LoadCodes8(const KernelColumn& col, int64_t row) {
    if (col.codes32 != nullptr) {
      return _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(col.codes32 + row));
    }
    const uint8_t* base = col.packed->data();
    switch (col.packed->width()) {
      case PackedColumn::Width::kU8:
        return _mm256_cvtepu8_epi32(_mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(base + row)));
      case PackedColumn::Width::kU16:
        return _mm256_cvtepu16_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(base + row * 2)));
      case PackedColumn::Width::kU32:
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(base + row * 4));
    }
    return _mm256_setzero_si256();
  }

  static void ComputeKeys(const std::vector<KernelColumn>& cols, int64_t row0,
                          int64_t n, uint32_t* keys, uint64_t* bitmap) {
    std::memset(bitmap, 0, static_cast<size_t>((n + 63) >> 6) * 8);
    uint8_t* bitmap_bytes = reinterpret_cast<uint8_t*>(bitmap);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      __m256i key = _mm256_set1_epi32(1);
      __m256i rej = _mm256_setzero_si256();
      for (const KernelColumn& c : cols) {
        __m256i lanes = _mm256_i32gather_epi32(
            reinterpret_cast<const int*>(c.lane), LoadCodes8(c, row0 + i), 4);
        rej = _mm256_or_si256(rej, lanes);
        key = _mm256_add_epi32(key, lanes);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + i), key);
      // Sign bits of `rej` are the reject flags; i is 8-aligned, so the
      // eight pass bits land on one whole bitmap byte.
      bitmap_bytes[i >> 3] = static_cast<uint8_t>(
          ~_mm256_movemask_ps(_mm256_castsi256_ps(rej)));
    }
    ComputeKeysScalar(cols, row0, i, n, keys, bitmap);
  }

  /// KeyPartition::Claim eight keys wide: the same double-precision block
  /// quotient (4 lanes per conversion), the ownership test folded into the
  /// pass bits a whole bitmap byte at a time.
  static void ClaimKeys(const KeyPartition& part, uint32_t* keys, int64_t n,
                        uint64_t* bitmap) {
    const __m256d inverse = _mm256_set1_pd(part.inverse());
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256i parts = _mm256_set1_epi32(static_cast<int>(part.parts()));
    const __m256i mine = _mm256_set1_epi32(static_cast<int>(part.part()));
    const __m256i low =
        _mm256_set1_epi32(static_cast<int>((1u << kKeyBlockShift) - 1));
    uint8_t* bitmap_bytes = reinterpret_cast<uint8_t*>(bitmap);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      __m256i* at = reinterpret_cast<__m256i*>(keys + i);
      const __m256i key = _mm256_loadu_si256(at);
      const __m256i block = _mm256_srli_epi32(key, kKeyBlockShift);
      const __m128i q_lo = _mm256_cvttpd_epi32(_mm256_mul_pd(
          _mm256_add_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(block)),
                        half),
          inverse));
      const __m128i q_hi = _mm256_cvttpd_epi32(_mm256_mul_pd(
          _mm256_add_pd(
              _mm256_cvtepi32_pd(_mm256_extracti128_si256(block, 1)), half),
          inverse));
      const __m256i q = _mm256_set_m128i(q_hi, q_lo);
      const __m256i owner =
          _mm256_sub_epi32(block, _mm256_mullo_epi32(q, parts));
      const __m256i owned = _mm256_cmpeq_epi32(owner, mine);
      bitmap_bytes[i >> 3] &= static_cast<uint8_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(owned)));
      _mm256_storeu_si256(
          at, _mm256_or_si256(_mm256_slli_epi32(q, kKeyBlockShift),
                              _mm256_and_si256(key, low)));
    }
    ClaimKeysScalar(part, keys, i, n, bitmap);
  }

  static int64_t LaneAccumulate(const FusedScanArgs& args, int64_t begin,
                                int64_t end, std::vector<LaneAcc>* lanes) {
    return LaneAccumulateVec<IsaAvx2>(args, begin, end, lanes);
  }

  /// kAccLanes = 4 on one 4-lane register.
  struct LaneRegs {
    __m256d sum, cnt;

    void Load(const LaneAcc& a) {
      sum = _mm256_loadu_pd(a.sum.data());
      alignas(32) double c[kAccLanes];
      for (int l = 0; l < kAccLanes; ++l) {
        c[l] = static_cast<double>(a.count[l]);
      }
      cnt = _mm256_loadu_pd(c);
    }
    void Store(LaneAcc* a) const {
      _mm256_storeu_pd(a->sum.data(), sum);
      alignas(32) double c[kAccLanes];
      _mm256_storeu_pd(c, cnt);
      for (int l = 0; l < kAccLanes; ++l) {
        a->count[l] = static_cast<int64_t>(c[l]);
      }
    }
    void MaskedAdd(const double* src, uint32_t nibble, AggOp op) {
      const __m256d mask = NibbleMask(nibble);
      if (op == AggOp::kSum || op == AggOp::kAvg) {
        sum = _mm256_add_pd(sum, _mm256_and_pd(_mm256_loadu_pd(src), mask));
      }
      if (op == AggOp::kCount) {
        sum = _mm256_add_pd(sum, _mm256_and_pd(_mm256_set1_pd(1.0), mask));
      } else if (op == AggOp::kAvg) {
        cnt = _mm256_add_pd(cnt, _mm256_and_pd(_mm256_set1_pd(1.0), mask));
      }
    }

   private:
    static __m256d NibbleMask(uint32_t nibble) {
      return _mm256_castsi256_pd(_mm256_set_epi64x(
          nibble & 8 ? -1 : 0, nibble & 4 ? -1 : 0, nibble & 2 ? -1 : 0,
          nibble & 1 ? -1 : 0));
    }
  };

  static void MinMax(const int32_t* v, int64_t n, int32_t* lo, int32_t* hi) {
    if (n < 16) {
      IsaScalar::MinMax(v, n, lo, hi);
      return;
    }
    __m256i mn = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
    __m256i mx = mn;
    int64_t i = 8;
    for (; i + 8 <= n; i += 8) {
      __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
      mn = _mm256_min_epi32(mn, x);
      mx = _mm256_max_epi32(mx, x);
    }
    alignas(32) int32_t mins[8];
    alignas(32) int32_t maxs[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(mins), mn);
    _mm256_store_si256(reinterpret_cast<__m256i*>(maxs), mx);
    int32_t best_lo = mins[0];
    int32_t best_hi = maxs[0];
    for (int l = 1; l < 8; ++l) {
      best_lo = std::min(best_lo, mins[l]);
      best_hi = std::max(best_hi, maxs[l]);
    }
    for (; i < n; ++i) {
      best_lo = std::min(best_lo, v[i]);
      best_hi = std::max(best_hi, v[i]);
    }
    *lo = best_lo;
    *hi = best_hi;
  }
};

#endif  // __AVX2__

// -- shared vector-tier lane loop -------------------------------------------

#if defined(__SSE4_2__) || defined(__AVX2__)

/// The vector no-group-by loop shared by the SSE4.2 and AVX2 tiers: the
/// tier's ComputeKeys yields the pass bitmap for a block, then each measure
/// folds 4 rows at a time into its Isa::LaneRegs with masked adds (masked-
/// out lanes add +0.0 — bit-inert, because a sum accumulator can never hold
/// -0.0: it starts at +0.0 and x + (−x) rounds to +0.0). The tail (< 4
/// rows, only at morsel end) continues the same (r − begin) & 3 lane
/// assignment in scalar code, exactly as the scalar mirror does.
template <class Isa>
int64_t LaneAccumulateVec(const FusedScanArgs& args, int64_t begin,
                          int64_t end, std::vector<LaneAcc>* lanes) {
  const int num_measures = static_cast<int>(args.measures.size());
  alignas(kSimdAlign) uint32_t keys[kKernelBlock];
  alignas(kSimdAlign) uint64_t bitmap[kKernelBlock / 64];
  int64_t passed = 0;
  for (int64_t block = begin; block < end; block += kKernelBlock) {
    const int64_t n = std::min(kKernelBlock, end - block);
    Isa::ComputeKeys(args.columns, block, n, keys, bitmap);
    for (int64_t w = 0; w < (n + 63) >> 6; ++w) {
      passed += std::popcount(bitmap[w]);
    }
    const int64_t vec_n = n & ~int64_t{3};
    for (int m = 0; m < num_measures; ++m) {
      const KernelMeasure& km = args.measures[m];
      typename Isa::LaneRegs regs;
      regs.Load((*lanes)[m]);
      const double* src = km.source != nullptr ? km.source + block : nullptr;
      // kCount ignores src; feed a dummy aligned pointer to keep the loop
      // uniform (the masked add never dereferences it for kCount).
      alignas(kSimdAlign) static const double kZeros[kAccLanes] = {};
      for (int64_t i = 0; i < vec_n; i += 4) {
        const uint32_t nibble =
            static_cast<uint32_t>(bitmap[i >> 6] >> (i & 63)) & 0xF;
        if (nibble == 0) continue;
        regs.MaskedAdd(src != nullptr ? src + i : kZeros, nibble, km.op);
      }
      regs.Store(&(*lanes)[m]);
      // Scalar tail, continuing the lane phase.
      for (int64_t i = vec_n; i < n; ++i) {
        if (((bitmap[i >> 6] >> (i & 63)) & 1) == 0) continue;
        const int lane = static_cast<int>((block + i - begin) &
                                          (kAccLanes - 1));
        switch (km.op) {
          case AggOp::kSum:
            (*lanes)[m].sum[lane] += km.source[block + i];
            break;
          case AggOp::kAvg:
            (*lanes)[m].sum[lane] += km.source[block + i];
            (*lanes)[m].count[lane] += 1;
            break;
          case AggOp::kCount:
            (*lanes)[m].sum[lane] += 1.0;
            break;
          case AggOp::kMin:
          case AggOp::kMax:
            break;
        }
      }
    }
  }
  return passed;
}

#endif  // __SSE4_2__ || __AVX2__

/// Whether the no-group-by lane path applies: nothing grouped and every
/// measure lane-accumulable (min/max fold through the dense path instead —
/// their masked-lane identities interact with NaN orderings, and a dense
/// single-slot accumulate is already cheap).
inline bool UseLanePath(const FusedScanArgs& args) {
  if (!args.groups.empty()) return false;
  for (const KernelMeasure& m : args.measures) {
    if (m.op == AggOp::kMin || m.op == AggOp::kMax) return false;
  }
  return true;
}

/// The tier-generic fused kernel body.
template <class Isa>
void FusedScanImpl(const FusedScanArgs& args, int64_t begin, int64_t end,
                   AggState* state) {
  state->rows_visited += end - begin;
  if (UseLanePath(args)) {
    std::vector<LaneAcc> lanes(args.measures.size());
    const int64_t passed = Isa::LaneAccumulate(args, begin, end, &lanes);
    FoldLanes(args, lanes, passed, state);
    return;
  }
  state->dense.assign(args.key_space, -1);
  if constexpr (Isa::kLevel == SimdLevel::kScalar) {
    DenseScanScalar(args, begin, end, state);
  } else {
    alignas(kSimdAlign) uint32_t keys[kKernelBlock];
    alignas(kSimdAlign) uint64_t bitmap[kKernelBlock / 64];
    for (int64_t block = begin; block < end; block += kKernelBlock) {
      const int64_t n = std::min(kKernelBlock, end - block);
      Isa::ComputeKeys(args.columns, block, n, keys, bitmap);
      AccumulateBlock(args, block, n, keys, bitmap, state);
    }
  }
  // Only the group lists survive to the merge; the dense array is per-
  // morsel scratch and would otherwise pin key_space × 4 bytes per partial.
  state->dense = std::vector<int32_t>();
}

/// The tier-generic owner-partitioned kernel body: per block, the tier's
/// ComputeKeys, then (with more than one partition) its ClaimKeys narrows
/// the pass bits to the owned rows and turns keys into slots, and the
/// owned rows fold in row order through FoldMeasures. The single-sum shape
/// keeps its accumulator and seen pointers in registers, with the same adds
/// in the same order.
template <class Isa>
void OwnedScanImpl(const FusedScanArgs& args, int64_t begin, int64_t end,
                   const KeyPartition& part, OwnedAggState* state) {
  state->rows_visited += end - begin;
  const bool single_sum = SingleSumShape(args);
  const double* src = single_sum ? args.measures[0].source : nullptr;
  double* acc = single_sum ? state->acc[0].data() : nullptr;
  uint8_t* seen = state->seen.data();
  int64_t passed = 0;
  alignas(kSimdAlign) uint32_t keys[kKernelBlock];
  alignas(kSimdAlign) uint64_t bitmap[kKernelBlock / 64];
  for (int64_t block = begin; block < end; block += kKernelBlock) {
    const int64_t n = std::min(kKernelBlock, end - block);
    const int64_t words = (n + 63) >> 6;
    Isa::ComputeKeys(args.columns, block, n, keys, bitmap);
    for (int64_t w = 0; w < words; ++w) passed += std::popcount(bitmap[w]);
    if (part.parts() > 1) Isa::ClaimKeys(part, keys, n, bitmap);
    for (int64_t w = 0; w < words; ++w) {
      uint64_t bits = bitmap[w];
      while (bits != 0) {
        const int64_t i = (w << 6) + std::countr_zero(bits);
        bits &= bits - 1;
        const uint32_t slot = keys[i];
        seen[slot] = 1;
        if (single_sum) {
          acc[slot] += src[block + i];
        } else {
          FoldMeasures(args, slot, block + i, state->acc, state->cnt);
        }
      }
    }
  }
  state->rows_passed += passed;
}

}  // namespace kernel_detail
}  // namespace assess

#endif  // ASSESS_STORAGE_SCAN_KERNELS_IMPL_H_
