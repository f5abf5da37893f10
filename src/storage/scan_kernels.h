#ifndef ASSESS_STORAGE_SCAN_KERNELS_H_
#define ASSESS_STORAGE_SCAN_KERNELS_H_

#include <cstdint>
#include <vector>

#include "common/simd.h"
#include "olap/cube_schema.h"
#include "olap/hierarchy.h"
#include "storage/packed_column.h"

namespace assess {

/// \brief The fused scan→aggregate kernels: predicate evaluation, group-key
/// construction and measure accumulation in one pass over a morsel.
///
/// The engine lowers a scan into *lane tables*: for every hierarchy the
/// scan touches, a uint32 array over that hierarchy's code domain holding
///
///   lane[code] = kLaneReject                     when the conjunction of
///                                                predicates rejects `code`
///   lane[code] = radix * (group_member + 1)      when grouped (0 if only
///                                                predicated)
///
/// so per fact row the kernel computes key = 1 + Σ_h lane_h[code_h], with
/// the reject bit OR-accumulated alongside the sum. Keys are exact integers
/// (the engine only picks these kernels when the mixed-radix key space stays
/// below the reject bit) and group lookup is a direct index into a dense
/// array — no hashing.
///
/// Two kernel shapes share that key arithmetic:
///   - the per-morsel fused kernel (FusedScanFn) folds one morsel into its
///     own AggState, groups numbered first-seen through a dense key→group
///     array; the engine merges such partials in morsel index order;
///   - the owner-partitioned kernel (OwnedScanFn) folds, for one
///     KeyPartition of the key space, every row whose key that partition
///     owns into accumulators indexed by key. One task per partition walks
///     the surviving morsels in index order, so each key accumulates its
///     rows in row order and nothing is merged afterwards.
///
/// Determinism contract: every tier (scalar / SSE4.2 / AVX2) produces
/// bit-identical output. Vector tiers only compute integer keys and pass
/// bitmaps; floating-point accumulation is row-sequential in all tiers,
/// except the no-group-by fast path which uses kAccLanes fixed-lane partial
/// accumulators with the *same* lane assignment (row→lane (r−begin)&3) and
/// the same lane merge order in every tier, scalar included.

/// \brief Reject marker in a lane table (bit 31; clean lane sums stay below
/// it because every kernel's key space is capped at kLaneReject).
inline constexpr uint32_t kLaneReject = 0x80000000u;

/// \brief Largest dense key space (max key + 1) the per-morsel fused kernel
/// handles; a larger group-by space the owner-partitioned kernel does not
/// take falls back to the generic hash kernel. 2^18 keys = a 1 MiB
/// key→group array per in-flight morsel, freed at morsel end.
inline constexpr uint32_t kDenseKeyLimit = 1u << 18;

/// \brief Fixed lane count of the no-group-by partial accumulators. ISA-
/// independent: the AVX2 tier maps it onto one 4-lane register, the SSE4.2
/// tier onto two 2-lane registers, the scalar tier onto four doubles — all
/// with rows assigned to lane (r − begin) & 3 and lanes merged 0→3.
inline constexpr int kAccLanes = 4;

/// \brief One hierarchy's input to the fused kernel. Exactly one of
/// `packed` (fact scans) / `codes32` (view and cached-result roll-ups) is
/// set; `lane` spans the code domain of that source.
struct KernelColumn {
  const PackedColumn* packed = nullptr;
  const int32_t* codes32 = nullptr;
  const uint32_t* lane = nullptr;
};

/// \brief Decode schema for one grouped hierarchy: member ids are recovered
/// from a key as (key − 1) / radix % card1 − 1 on first-seen insertion.
struct KernelGroup {
  uint32_t radix = 0;
  uint32_t card1 = 0;  ///< level cardinality + 1
};

struct KernelMeasure {
  const double* source = nullptr;  ///< null: rows contribute 0.0 (count)
  AggOp op = AggOp::kSum;
};

/// \brief Per-morsel aggregation state shared by the dense fused kernels
/// and the generic hash kernel; partials merge in morsel index order.
struct AggState {
  int32_t num_groups = 0;
  std::vector<std::vector<MemberId>> out_coords;  ///< [grouped hier][group]
  std::vector<std::vector<double>> acc;           ///< [measure][group]
  /// [measure][group] row counts, kept for avg measures only (the vector of
  /// any other measure stays empty).
  std::vector<std::vector<int64_t>> cnt;
  /// Dense key→group index, -1 = empty. Allocated by the fused kernel on
  /// entry, released when its morsel completes (only the group lists above
  /// survive to the merge).
  std::vector<int32_t> dense;
  int64_t rows_visited = 0;
  int64_t rows_passed = 0;
};

/// \brief Keys per ownership block of the owner-partitioned kernel: eight
/// keys, one 64-byte line of double accumulators.
inline constexpr uint32_t kKeyBlockShift = 3;

/// \brief Most partitions one owner-partitioned scan splits a key space
/// into (KeyPartition's division stays exact below it).
inline constexpr uint32_t kMaxKeyPartitions = 1u << 16;

/// \brief One task's share of a key space: key blocks (key >>
/// kKeyBlockShift) are dealt round-robin, block b to partition b % parts.
/// Round-robin rather than contiguous ranges, so a predicate that pins a
/// grouped coordinate — one contiguous run of keys — still spreads over
/// every partition. An owned key lives at slot (b / parts) << shift |
/// (key & mask) of the partition's accumulators.
class KeyPartition {
 public:
  /// `parts` in [1, kMaxKeyPartitions], `part` < `parts`.
  KeyPartition(uint32_t part, uint32_t parts)
      : part_(part), parts_(parts), inverse_(1.0 / parts) {}

  uint32_t part() const { return part_; }
  uint32_t parts() const { return parts_; }
  double inverse() const { return inverse_; }

  /// Accumulator slots this partition needs for keys in [0, key_space).
  uint32_t Slots(uint32_t key_space) const {
    const uint32_t blocks =
        (key_space + (1u << kKeyBlockShift) - 1) >> kKeyBlockShift;
    return ((blocks + parts_ - 1) / parts_) << kKeyBlockShift;
  }

  /// b / parts for a key block b < 2^28 (keys stay below kLaneReject). In
  /// doubles, so the vector tiers can run the identical arithmetic 4 or 8
  /// lanes wide: (b + 0.5) / parts lies at least 0.5 / parts from an
  /// integer, far beyond the product's rounding error (< 2^-23) for any
  /// parts up to kMaxKeyPartitions, so truncation is exact.
  uint32_t BlockQuotient(uint32_t block) const {
    return static_cast<uint32_t>((static_cast<double>(block) + 0.5) *
                                 inverse_);
  }

  /// Rewrites `*key` into its slot and returns whether this partition owns
  /// it. Branch-free, so callers can fold the answer into pass bits: with
  /// keys spread over the partitions an ownership branch would mispredict
  /// on a large share of rows.
  bool Claim(uint32_t* key) const {
    const uint32_t block = *key >> kKeyBlockShift;
    const uint32_t q = BlockQuotient(block);
    *key = (q << kKeyBlockShift) | (*key & ((1u << kKeyBlockShift) - 1));
    return block - q * parts_ == part_;
  }

 private:
  uint32_t part_;
  uint32_t parts_;
  double inverse_;
};

/// \brief One partition's accumulators of an owner-partitioned scan,
/// indexed by KeyPartition slot and sized by the key space.
struct OwnedAggState {
  std::vector<uint8_t> seen;              ///< [slot] 1 once a row passed
  std::vector<std::vector<double>> acc;   ///< [measure][slot]
  std::vector<std::vector<int64_t>> cnt;  ///< [measure][slot], avg only
  int64_t rows_visited = 0;
  int64_t rows_passed = 0;
};

/// \brief Everything a fused-kernel invocation needs besides the row range.
struct FusedScanArgs {
  std::vector<KernelColumn> columns;  ///< all touched hierarchies
  std::vector<KernelGroup> groups;    ///< grouped subset, radix-ascending
  std::vector<KernelMeasure> measures;
  uint32_t key_space = 0;  ///< dense array size (> max possible key)
};

/// \brief Runs the fused scan→aggregate over rows [begin, end) of one
/// morsel, accumulating into `state`.
using FusedScanFn = void (*)(const FusedScanArgs& args, int64_t begin,
                             int64_t end, AggState* state);

/// \brief Runs rows [begin, end) through the owner-partitioned kernel:
/// keys are computed for every row, but only rows whose key `part` owns are
/// folded into `state` (sized by InitOwnedAggState). Counts every visited
/// and passing row, owned or not.
using OwnedScanFn = void (*)(const FusedScanArgs& args, int64_t begin,
                             int64_t end, const KeyPartition& part,
                             OwnedAggState* state);

/// \brief `level` if its kernels are compiled into this build, else scalar:
/// the tier the kernels below actually run at.
SimdLevel CompiledSimdLevel(SimdLevel level);

/// \brief The fused kernel for CompiledSimdLevel(`level`).
FusedScanFn GetFusedScanKernel(SimdLevel level);

/// \brief The owner-partitioned kernel for CompiledSimdLevel(`level`).
OwnedScanFn GetOwnedScanKernel(SimdLevel level);

/// \brief Sizes `state` for `part`'s share of args.key_space: every slot
/// unseen and at its operator's initial accumulator.
void InitOwnedAggState(const FusedScanArgs& args, const KeyPartition& part,
                       OwnedAggState* state);

/// \brief Min/max of `n` int32 codes (zone-map construction), vectorized at
/// `level`. Exact, so trivially tier-independent. `n` must be > 0.
void MinMaxInt32(SimdLevel level, const int32_t* values, int64_t n,
                 int32_t* min_out, int32_t* max_out);

/// \brief Decodes rows [begin, end) of a packed FK column into `out`
/// (out[i] = code of row begin + i). The multi-consumer shared scan uses
/// this to gather each packed column once per morsel and feed the same
/// int32 codes to every consumer's kernel — identical codes, identical
/// keys, so sharing cannot perturb results.
void DecodePackedCodes(const PackedColumn& packed, int64_t begin, int64_t end,
                       int32_t* out);

}  // namespace assess

#endif  // ASSESS_STORAGE_SCAN_KERNELS_H_
