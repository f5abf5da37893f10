#include "storage/star_query_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_set>
#include <utility>

#include "algebra/operators.h"
#include "cache/query_fingerprint.h"
#include "common/failpoint.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/task_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/workload_profiler.h"
#include "storage/flat_map64.h"
#include "storage/materialized_view.h"
#include "storage/predicate.h"
#include "storage/scan_kernels.h"

namespace assess {

namespace {

// Per-hierarchy scan plan: translation arrays from the source's code domain
// (dimension rows for fact scans, Dom(view level) for view scans) to group
// member ids and predicate pass flags.
struct HierScanPlan {
  bool grouped = false;
  // Source code column: a raw pointer (into a fact snapshot's pinned bank,
  // or a rolled-up cube's coordinate column) so plans never re-read a
  // vector object a concurrent appender may be growing.
  const int32_t* codes = nullptr;
  // Dictionary-compressed view of `codes` (fact scans only); the fused
  // kernels read it instead of the int32 column when present.
  const PackedColumn* packed = nullptr;
  // Exclusive upper bound of the source's code domain (dimension row count
  // for fact scans, Dom(view level) for roll-up scans): the lane-table
  // length of the fused kernels.
  int64_t code_domain = 0;
  // Fact-table dimension index behind `codes` (for zone-map lookup), or -1
  // when the source is a rolled-up cube (views, cached results) — those
  // carry no zone maps.
  int fact_dim = -1;
  // Translation domain -> group member id: either borrowed from a dimension
  // table column (fact scans) or owned (view scans). Never point
  // `external_group_code` at `owned_group_code`: plans are moved into a
  // vector, which would dangle the self-reference. Aggregate() resolves the
  // effective array.
  const std::vector<MemberId>* external_group_code = nullptr;
  std::vector<MemberId> owned_group_code;
  std::vector<uint8_t> pass;  // empty: all pass
  uint64_t radix = 0;
  int group_level = 0;
  std::shared_ptr<Hierarchy> hierarchy;

  const std::vector<MemberId>& group_code() const {
    return external_group_code != nullptr ? *external_group_code
                                          : owned_group_code;
  }
};

struct MeasureScanPlan {
  const double* source = nullptr;
  AggOp op = AggOp::kSum;  // effective re-aggregation operator
  std::string name;
};

double InitialAccumulator(AggOp op) {
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

// Aggregates source rows [begin, end) into `state` (the generic hash
// kernel, for per-morsel scans whose mixed-radix key space exceeds
// kDenseKeyLimit). Keys are mixed-radix coordinate encodings offset by one,
// so they are always >= 1 (FlatMap64's empty sentinel is 0) even for fully
// aggregated queries. The key index lives only as long as the range: the
// merge re-keys partials from their stored coordinates.
void AggregateRange(int64_t begin, int64_t end,
                    const std::vector<HierScanPlan*>& needed,
                    const std::vector<HierScanPlan*>& grouped,
                    const std::vector<MeasureScanPlan>& measures,
                    AggState* state) {
  const int num_grouped = static_cast<int>(grouped.size());
  const int num_measures = static_cast<int>(measures.size());
  FlatMap64 index(1024);
  std::array<MemberId, 16> row_groups;
  state->rows_visited += end - begin;
  for (int64_t r = begin; r < end; ++r) {
    uint64_t key = 1;
    bool pass = true;
    int g = 0;
    for (HierScanPlan* h : needed) {
      int32_t code = h->codes[r];
      if (!h->pass.empty() && !h->pass[code]) {
        pass = false;
        break;
      }
      if (h->grouped) {
        MemberId member = h->group_code()[code];
        row_groups[g++] = member;
        key += h->radix * (static_cast<uint64_t>(member) + 1);
      }
    }
    if (!pass) continue;
    ++state->rows_passed;

    bool inserted = false;
    int32_t group = index.FindOrInsert(key, state->num_groups, &inserted);
    if (inserted) {
      ++state->num_groups;
      for (int i = 0; i < num_grouped; ++i) {
        state->out_coords[i].push_back(row_groups[i]);
      }
      for (int m = 0; m < num_measures; ++m) {
        state->acc[m].push_back(InitialAccumulator(measures[m].op));
        if (measures[m].op == AggOp::kAvg) state->cnt[m].push_back(0);
      }
    }
    for (int m = 0; m < num_measures; ++m) {
      double v = measures[m].source ? measures[m].source[r] : 0.0;
      switch (measures[m].op) {
        case AggOp::kSum:
          state->acc[m][group] += v;
          break;
        case AggOp::kAvg:
          state->acc[m][group] += v;
          state->cnt[m][group] += 1;
          break;
        case AggOp::kMin:
          state->acc[m][group] = std::min(state->acc[m][group], v);
          break;
        case AggOp::kMax:
          state->acc[m][group] = std::max(state->acc[m][group], v);
          break;
        case AggOp::kCount:
          state->acc[m][group] += 1;
          break;
      }
    }
  }
}

// Folds `from` into `into` (the per-morsel path's merge step): groups are
// re-keyed from their stored coordinates through `index` (into's key →
// group map) and accumulators combined per operator.
void MergeAggStates(const std::vector<HierScanPlan*>& grouped,
                    const std::vector<MeasureScanPlan>& measures,
                    const AggState& from, FlatMap64* index, AggState* into) {
  const int num_grouped = static_cast<int>(grouped.size());
  const int num_measures = static_cast<int>(measures.size());
  for (int32_t g = 0; g < from.num_groups; ++g) {
    uint64_t key = 1;
    for (int i = 0; i < num_grouped; ++i) {
      key += grouped[i]->radix *
             (static_cast<uint64_t>(from.out_coords[i][g]) + 1);
    }
    bool inserted = false;
    int32_t group = index->FindOrInsert(key, into->num_groups, &inserted);
    if (inserted) {
      ++into->num_groups;
      for (int i = 0; i < num_grouped; ++i) {
        into->out_coords[i].push_back(from.out_coords[i][g]);
      }
      for (int m = 0; m < num_measures; ++m) {
        into->acc[m].push_back(InitialAccumulator(measures[m].op));
        if (measures[m].op == AggOp::kAvg) into->cnt[m].push_back(0);
      }
    }
    for (int m = 0; m < num_measures; ++m) {
      switch (measures[m].op) {
        case AggOp::kSum:
        case AggOp::kCount:
          into->acc[m][group] += from.acc[m][g];
          break;
        case AggOp::kAvg:
          into->acc[m][group] += from.acc[m][g];
          into->cnt[m][group] += from.cnt[m][g];
          break;
        case AggOp::kMin:
          into->acc[m][group] = std::min(into->acc[m][group], from.acc[m][g]);
          break;
        case AggOp::kMax:
          into->acc[m][group] = std::max(into->acc[m][group], from.acc[m][g]);
          break;
      }
    }
  }
}

// How one Aggregate() call is scheduled: which pool runs its tasks, how
// many participants it may occupy, and (fact scans only) the zone maps that
// let whole morsels be skipped. `scanned`/`skipped` report back what
// happened, for the engine's counters and the server stats frame.
struct MorselExec {
  TaskPool* pool = nullptr;
  int max_threads = 1;
  const FactZoneMaps* zones = nullptr;
  uint64_t scanned = 0;
  uint64_t skipped = 0;
  // What Aggregate() actually ran, for spans and EXPLAIN ANALYZE: the SIMD
  // tier (meaningful when `fused`), whether a dense lane-table kernel or the
  // generic hash kernel did the work, how many key partitions the owner-
  // partitioned path split the key space into (0: it did not run), and the
  // scan's selectivity inputs.
  SimdLevel simd = SimdLevel::kScalar;
  bool fused = false;
  int partitions = 0;
  int64_t rows_visited = 0;
  int64_t rows_passed = 0;
};

// Process-wide dispatch counters (one bump per scan, not per morsel): which
// kernel tier actually ran, for `\metrics` and the CI smoke checks.
void CountKernelDispatch(const MorselExec& exec) {
  static Counter* const generic = MetricsRegistry::Instance().GetCounter(
      "assess_kernel_dispatch_generic_total",
      "Scans aggregated by the generic hash kernel");
  static Counter* const scalar = MetricsRegistry::Instance().GetCounter(
      "assess_kernel_dispatch_scalar_total",
      "Scans aggregated by the fused scalar kernel");
  static Counter* const sse42 = MetricsRegistry::Instance().GetCounter(
      "assess_kernel_dispatch_sse42_total",
      "Scans aggregated by the fused SSE4.2 kernel");
  static Counter* const avx2 = MetricsRegistry::Instance().GetCounter(
      "assess_kernel_dispatch_avx2_total",
      "Scans aggregated by the fused AVX2 kernel");
  if (!exec.fused) {
    generic->Inc(1);
    return;
  }
  switch (exec.simd) {
    case SimdLevel::kScalar:
      scalar->Inc(1);
      break;
    case SimdLevel::kSSE42:
      sse42->Inc(1);
      break;
    case SimdLevel::kAVX2:
      avx2->Inc(1);
      break;
  }
}

// Annotates a scan span with the kernel path and observed selectivity.
void AddKernelSpanAttrs(Span& span, const MorselExec& exec) {
  if (!span.active()) return;
  span.AddString("simd", exec.fused ? SimdLevelName(exec.simd) : "generic");
  span.AddString("kernel", exec.partitions > 0 ? "partitioned_dense"
                           : exec.fused        ? "fused_dense"
                                               : "hash");
  if (exec.partitions > 0) span.AddInt("partitions", exec.partitions);
  span.AddInt("rows_visited", exec.rows_visited);
  span.AddInt("rows_passed", exec.rows_passed);
  if (exec.rows_visited > 0) {
    // Per-mille so the span attribute stays integral.
    span.AddInt("selectivity_permille",
                exec.rows_passed * 1000 / exec.rows_visited);
  }
}

// Runs task(0) .. task(n - 1) on the scan's pool at up to `participants`
// threads, or inline in index order when the scan has no pool.
Status RunTasks(const MorselExec& exec, int64_t n, int participants,
                const TaskPool::MorselFn& task) {
  if (exec.pool != nullptr) {
    return exec.pool->RunMorsels(n, participants, task);
  }
  for (int64_t i = 0; i < n; ++i) ASSESS_RETURN_NOT_OK(task(i));
  return Status::OK();
}

// Assigns mixed-radix factors to the grouped hierarchies of `hiers`, in
// order, and returns the key space (max key + 1). `needed` receives every
// hierarchy, `grouped` the grouped ones.
Result<uint64_t> AssignRadixes(std::vector<HierScanPlan>& hiers,
                               std::vector<HierScanPlan*>* needed,
                               std::vector<HierScanPlan*>* grouped) {
  uint64_t factor = 1;
  for (HierScanPlan& h : hiers) {
    needed->push_back(&h);
    if (!h.grouped) continue;
    h.radix = factor;
    uint64_t card = static_cast<uint64_t>(
                        h.hierarchy->LevelCardinality(h.group_level)) +
                    1;
    if (factor > (uint64_t{1} << 62) / std::max<uint64_t>(card, 1)) {
      return Status::NotSupported(
          "group-by space exceeds 2^62 coordinates; no such schema is "
          "supported by the engine");
    }
    factor *= card;
    grouped->push_back(&h);
  }
  return factor + 1;
}

// Lowers the plans into the dense kernels' lane tables (see
// storage/scan_kernels.h) and their argument block. `key_space` must stay
// below kLaneReject.
void CompileLaneTables(const std::vector<HierScanPlan*>& needed,
                       uint64_t key_space,
                       const std::vector<MeasureScanPlan>& measures,
                       std::vector<std::vector<uint32_t>>* lane_tables,
                       FusedScanArgs* args) {
  args->key_space = static_cast<uint32_t>(key_space);
  lane_tables->reserve(needed.size());
  for (HierScanPlan* h : needed) {
    std::vector<uint32_t> lane(static_cast<size_t>(h->code_domain), 0u);
    const std::vector<MemberId>* gc = h->grouped ? &h->group_code() : nullptr;
    for (int64_t c = 0; c < h->code_domain; ++c) {
      if (!h->pass.empty() && !h->pass[c]) {
        lane[c] = kLaneReject;
      } else if (gc != nullptr) {
        lane[c] = static_cast<uint32_t>(h->radix) *
                  (static_cast<uint32_t>((*gc)[c]) + 1u);
      }
    }
    lane_tables->push_back(std::move(lane));
    KernelColumn col;
    col.packed = h->packed;
    if (h->packed == nullptr) col.codes32 = h->codes;
    col.lane = lane_tables->back().data();
    args->columns.push_back(col);
    if (h->grouped) {
      args->groups.push_back(KernelGroup{
          static_cast<uint32_t>(h->radix),
          static_cast<uint32_t>(
              h->hierarchy->LevelCardinality(h->group_level)) +
              1u});
    }
  }
  for (const MeasureScanPlan& m : measures) {
    args->measures.push_back(KernelMeasure{m.source, m.op});
  }
}

// Zone-map pruning: the indexes of the morsels of [0, rows) a scan must
// visit. A morsel is skippable when, for some predicated hierarchy, no code
// in the morsel's [min, max] range passes. The per-hierarchy prefix sums
// over the pass flags make that an O(1) check per (morsel, hierarchy);
// building them costs one pass over the dimension rows, negligible next to
// the fact scan they prune. Records the scanned/skipped counts in `exec`.
std::vector<int64_t> SurvivingMorsels(const std::vector<HierScanPlan>& hiers,
                                      int64_t rows, MorselExec* exec) {
  const int64_t num_morsels =
      rows == 0 ? 0 : (rows + kMorselRows - 1) / kMorselRows;
  struct Pruner {
    const std::vector<ZoneRange>* zones = nullptr;
    std::vector<int32_t> pass_prefix;
  };
  std::vector<Pruner> pruners;
  if (exec->zones != nullptr && num_morsels > 1) {
    for (const HierScanPlan& h : hiers) {
      if (h.pass.empty() || h.fact_dim < 0) continue;
      Pruner pruner;
      pruner.zones = &exec->zones->dims[h.fact_dim];
      pruner.pass_prefix.resize(h.pass.size() + 1);
      pruner.pass_prefix[0] = 0;
      for (size_t i = 0; i < h.pass.size(); ++i) {
        pruner.pass_prefix[i + 1] =
            pruner.pass_prefix[i] + (h.pass[i] ? 1 : 0);
      }
      pruners.push_back(std::move(pruner));
    }
  }
  std::vector<int64_t> work;
  work.reserve(num_morsels);
  for (int64_t m = 0; m < num_morsels; ++m) {
    bool runnable = true;
    for (const Pruner& pruner : pruners) {
      const ZoneRange& zone = (*pruner.zones)[m];
      if (pruner.pass_prefix[zone.max + 1] - pruner.pass_prefix[zone.min] ==
          0) {
        runnable = false;
        break;
      }
    }
    if (runnable) work.push_back(m);
  }
  exec->scanned = work.size();
  exec->skipped = static_cast<uint64_t>(num_morsels) - work.size();
  return work;
}

// Constants of the aggregation-path choice (ChooseScanPath), from a sweep
// of one grouped sum over a synthetic one-dimension star (uniform keys,
// 3M facts, 2 participants pinned to 2 CPUs; DESIGN.md §9 has the table):
//   - kOwnedMinKeys is the measured crossover: below it a per-morsel
//     partial holds at most that many groups, the morsel-order merge is
//     cheap, and computing each row's key once beats every partition
//     recomputing it (64 keys: 4 ms per-morsel vs 16 ms partitioned; 4096:
//     15 vs 15 ms; 32768: 69 vs 17 ms);
//   - kOwnedRowsPerKey is a memory bound, not a time crossover: the
//     partitioned path was still ahead at 1 row per key (400K keys over
//     400K rows: 58 vs 11 ms), but its accumulators are sized by the key
//     space, not by the groups that occur, so sparse key spaces large next
//     to the scan stay on the per-morsel path, whose partials grow only
//     with the rows.
inline constexpr uint64_t kOwnedMinKeys = 4096;
inline constexpr uint64_t kOwnedRowsPerKey = 4;

enum class ScanPath {
  kMorselHash,   // per-morsel generic hash kernel, morsel-order merge
  kMorselDense,  // per-morsel fused dense kernel, morsel-order merge
  kOwned,        // owner-partitioned dense kernel, no merge
};

// Picks a scan's aggregation path from the key space, whether anything is
// grouped, and the surviving morsels of a `rows`-row source — properties of
// the query and data alone, never of the SIMD tier or the thread count, so
// the choice cannot make output bits depend on either. The per-morsel path
// stays where it wins: no group-by (the fixed-lane accumulators), a single
// surviving morsel (its partial is the answer, nothing to merge), small key
// spaces, and key spaces large relative to the rows (see the constants
// above). The partitioned path also needs every key below kLaneReject.
// Within the per-morsel path the fused dense kernel needs the key space
// within kDenseKeyLimit and not large next to the scan (each morsel clears
// a key-space-sized array); otherwise the generic hash kernel runs.
ScanPath ChooseScanPath(uint64_t key_space, bool grouped,
                        const std::vector<int64_t>& work, int64_t rows) {
  if (grouped && work.size() > 1 && key_space >= kOwnedMinKeys &&
      key_space <= kLaneReject) {
    int64_t surviving_rows = 0;
    for (int64_t m : work) {
      surviving_rows +=
          std::min(rows, (m + 1) * kMorselRows) - m * kMorselRows;
    }
    if (key_space * kOwnedRowsPerKey <=
        static_cast<uint64_t>(surviving_rows)) {
      return ScanPath::kOwned;
    }
  }
  if (key_space <= kDenseKeyLimit &&
      static_cast<int64_t>(key_space) <=
          std::max<int64_t>(int64_t{4096}, rows)) {
    return ScanPath::kMorselDense;
  }
  return ScanPath::kMorselHash;
}

AggState EmptyAggState(size_t num_grouped, size_t num_measures) {
  AggState state;
  state.out_coords.resize(num_grouped);
  state.acc.resize(num_measures);
  state.cnt.resize(num_measures);
  return state;
}

// The per-morsel path's deterministic merge: always in morsel index order,
// whichever participant filled each partial. A single partial is adopted
// unchanged, which keeps sub-morsel scans bit-identical to a serial
// row-at-a-time fold. Sums the partials' row counts into the result.
AggState MergeInMorselOrder(const std::vector<HierScanPlan*>& grouped,
                            const std::vector<MeasureScanPlan>& measures,
                            std::vector<AggState>& partials) {
  if (partials.size() == 1) return std::move(partials[0]);
  AggState merged = EmptyAggState(grouped.size(), measures.size());
  FlatMap64 index(1024);
  for (const AggState& partial : partials) {
    MergeAggStates(grouped, measures, partial, &index, &merged);
    merged.rows_visited += partial.rows_visited;
    merged.rows_passed += partial.rows_passed;
  }
  return merged;
}

// The owner-partitioned scan: the key space is split into one
// KeyPartition per participant (see storage/scan_kernels.h), and one pool
// task per partition walks the surviving morsels `work` in index order,
// folding only the keys it owns. Every key therefore accumulates its rows
// in row order — the same bits at every participant count and tier, and
// the bits of a naive serial row-at-a-time fold — and nothing is merged:
// groups are emitted by walking the key space in order, reading each key
// from its owner. Row counts come from partition 0 (every partition visits
// every row).
Result<AggState> AggregateOwned(const FusedScanArgs& args,
                                const std::vector<int64_t>& work, int64_t rows,
                                MorselExec* exec) {
  const uint32_t parts = static_cast<uint32_t>(
      exec->pool != nullptr
          ? std::clamp<int>(exec->max_threads, 1, kMaxKeyPartitions)
          : 1);
  exec->fused = true;
  exec->simd = CompiledSimdLevel(ActiveSimdLevel());
  exec->partitions = static_cast<int>(parts);
  const OwnedScanFn scan = GetOwnedScanKernel(exec->simd);
  std::vector<OwnedAggState> states(parts);
  ASSESS_RETURN_NOT_OK(RunTasks(
      *exec, parts, static_cast<int>(parts), [&](int64_t p) -> Status {
        const KeyPartition part(static_cast<uint32_t>(p), parts);
        OwnedAggState& state = states[p];
        InitOwnedAggState(args, part, &state);
        for (int64_t m : work) {
          const int64_t begin = m * kMorselRows;
          scan(args, begin, std::min(rows, begin + kMorselRows), part, &state);
        }
        return Status::OK();
      }));

  const size_t num_grouped = args.groups.size();
  const size_t num_measures = args.measures.size();
  AggState out = EmptyAggState(num_grouped, num_measures);
  out.rows_visited = states[0].rows_visited;
  out.rows_passed = states[0].rows_passed;
  constexpr uint32_t kBlockKeys = 1u << kKeyBlockShift;
  const uint32_t blocks = (args.key_space + kBlockKeys - 1) >> kKeyBlockShift;
  uint32_t owner = 0;
  uint32_t base = 0;  // owner's slot of the block's first key
  for (uint32_t b = 0; b < blocks; ++b) {
    const OwnedAggState& state = states[owner];
    for (uint32_t j = 0; j < kBlockKeys; ++j) {
      const uint32_t slot = base + j;
      if (!state.seen[slot]) continue;
      const uint32_t k0 = (b << kKeyBlockShift) + j - 1;
      for (size_t g = 0; g < num_grouped; ++g) {
        const KernelGroup& kg = args.groups[g];
        out.out_coords[g].push_back(
            static_cast<MemberId>((k0 / kg.radix) % kg.card1) - 1);
      }
      for (size_t m = 0; m < num_measures; ++m) {
        out.acc[m].push_back(state.acc[m][slot]);
        if (args.measures[m].op == AggOp::kAvg) {
          out.cnt[m].push_back(state.cnt[m][slot]);
        }
      }
      ++out.num_groups;
    }
    if (++owner == parts) {
      owner = 0;
      base += kBlockKeys;
    }
  }
  return out;
}

// The tail Aggregate and AggregateShared share: finalizes averages and
// wraps the group lists into the derived cube.
Cube FinishCube(const std::vector<HierScanPlan*>& grouped,
                const std::vector<MeasureScanPlan>& measures, AggState state) {
  const int num_measures = static_cast<int>(measures.size());
  for (int m = 0; m < num_measures; ++m) {
    if (measures[m].op != AggOp::kAvg) continue;
    for (int32_t gi = 0; gi < state.num_groups; ++gi) {
      state.acc[m][gi] = state.cnt[m][gi] > 0
                             ? state.acc[m][gi] / state.cnt[m][gi]
                             : kNullMeasure;
    }
  }
  std::vector<LevelRef> out_levels;
  out_levels.reserve(grouped.size());
  for (HierScanPlan* h : grouped) {
    out_levels.push_back(LevelRef{h->hierarchy, h->group_level});
  }
  std::vector<std::string> out_names;
  out_names.reserve(num_measures);
  for (const MeasureScanPlan& m : measures) out_names.push_back(m.name);
  return Cube::FromColumns(std::move(out_levels), std::move(state.out_coords),
                           std::move(out_names), std::move(state.acc));
}

// Aggregates `rows` source rows under the given hierarchy and measure
// plans, producing the derived cube.
//
// Morsels (kMorselRows-sized row ranges) whose zone maps prove the
// predicate unsatisfiable are skipped outright; ChooseScanPath then picks
// how the survivors are aggregated. On the owner-partitioned path each pool
// task owns a share of the key space and folds its keys in row order
// (AggregateOwned). On the per-morsel path pool workers pull morsels
// dynamically, each evaluated predicate-and-aggregate in one pass into its
// own partial (no intermediate row-id vector), and partials merge in
// morsel index order. Either way every output bit is a function of the
// data alone, identical across thread counts, tiers and runs.
Result<Cube> Aggregate(int64_t rows, std::vector<HierScanPlan>& hiers,
                       const std::vector<MeasureScanPlan>& measures,
                       MorselExec* exec) {
  std::vector<HierScanPlan*> needed;
  std::vector<HierScanPlan*> grouped;
  ASSESS_ASSIGN_OR_RETURN(const uint64_t key_space,
                          AssignRadixes(hiers, &needed, &grouped));
  const std::vector<int64_t> work = SurvivingMorsels(hiers, rows, exec);
  const ScanPath path = ChooseScanPath(key_space, !grouped.empty(), work, rows);
  std::vector<std::vector<uint32_t>> lane_tables;
  FusedScanArgs args;
  if (path != ScanPath::kMorselHash) {
    CompileLaneTables(needed, key_space, measures, &lane_tables, &args);
  }

  AggState result;
  if (path == ScanPath::kOwned) {
    ASSESS_ASSIGN_OR_RETURN(result, AggregateOwned(args, work, rows, exec));
  } else {
    FusedScanFn fused_fn = nullptr;
    if (path == ScanPath::kMorselDense) {
      exec->fused = true;
      exec->simd = CompiledSimdLevel(ActiveSimdLevel());
      fused_fn = GetFusedScanKernel(exec->simd);
    }
    std::vector<AggState> partials(
        work.size(), EmptyAggState(grouped.size(), measures.size()));
    ASSESS_RETURN_NOT_OK(RunTasks(
        *exec, static_cast<int64_t>(work.size()), exec->max_threads,
        [&](int64_t i) -> Status {
          const int64_t begin = work[i] * kMorselRows;
          const int64_t end = std::min(rows, begin + kMorselRows);
          if (fused_fn != nullptr) {
            fused_fn(args, begin, end, &partials[i]);
          } else {
            AggregateRange(begin, end, needed, grouped, measures,
                           &partials[i]);
          }
          return Status::OK();
        }));
    result = MergeInMorselOrder(grouped, measures, partials);
  }
  exec->rows_visited += result.rows_visited;
  exec->rows_passed += result.rows_passed;
  CountKernelDispatch(*exec);
  return FinishCube(grouped, measures, std::move(result));
}

// One query's compiled fact-scan plan inside a shared scan.
struct ConsumerScan {
  std::vector<HierScanPlan> hiers;
  std::vector<MeasureScanPlan> measures;
};

// The multi-consumer sibling of Aggregate(): one morsel pass over `rows`
// fact rows feeds every per-morsel consumer's accumulator set. Per morsel,
// each packed FK column any fused consumer touches is decoded once into an
// int32 scratch buffer; every fused consumer then runs over the scratch
// codes (begin-relative, measure sources shifted to match). The decoded
// codes are exactly what the solo kernel would have read through
// PackedColumn::CodeAt, the accumulation stays row-sequential per consumer,
// and each consumer's partials merge in morsel index order — so every
// output is bit-identical to running that consumer alone. Consumers whose
// key space takes the hash kernel run it at absolute rows, sharing the pass
// over the morsel but not the gather. Consumers ChooseScanPath sends to the
// owner-partitioned path run AggregateOwned over the same surviving
// morsels — the very routine a solo scan of theirs runs.
//
// All consumers must share one predicate conjunction (the caller's group
// contract): the zone-pruned work list is computed from consumer 0 and is
// valid for every consumer.
//
// The same contract pays for the scan's real sharing: the conjunction is
// evaluated ONCE per morsel and the passing rows compacted — codes and
// measure values alike — so each additional grouped consumer aggregates
// only the selected rows instead of re-testing the whole morsel. Under a
// selective predicate N consumers cost about one scan plus N tiny
// aggregations, not N scans. Compaction preserves the relative order of
// passing rows and the grouped kernels accumulate row-sequentially, so
// results stay bit-identical; no-group-by consumers are exempted (their
// fast path assigns rows to fixed accumulator lanes by (row − begin) & 3,
// which renumbering would perturb) and run over the full range as before.
Result<std::vector<Cube>> AggregateShared(int64_t rows,
                                          std::vector<ConsumerScan>& consumers,
                                          MorselExec* exec) {
  const int num_consumers = static_cast<int>(consumers.size());
  if (num_consumers == 0) return std::vector<Cube>();

  struct Compiled {
    std::vector<HierScanPlan*> needed;
    std::vector<HierScanPlan*> grouped;
    ScanPath path = ScanPath::kMorselHash;
    std::vector<std::vector<uint32_t>> lane_tables;
    FusedScanArgs args;
    // Eligible for the shared-selection compacted path (per-morsel dense
    // AND grouped; see the bit-identity note above).
    bool compact = false;
    // Per fused column: index into the shared decode list, or -1 when the
    // source is already int32 (then codes32 is shifted by the morsel base).
    std::vector<int> scratch_of;
    // Per fused column: index into the shared direct-source compaction
    // list when scratch_of is -1 (compacted path only).
    std::vector<int> direct_of;
    // Per measure: index into the shared measure compaction list, or -1
    // for null sources (count).
    std::vector<int> msource_of;
  };
  std::vector<Compiled> compiled(num_consumers);
  std::vector<uint64_t> key_spaces(num_consumers);
  for (int c = 0; c < num_consumers; ++c) {
    ASSESS_ASSIGN_OR_RETURN(
        key_spaces[c], AssignRadixes(consumers[c].hiers, &compiled[c].needed,
                                     &compiled[c].grouped));
  }
  // Zone-map pruning over consumer 0's predicated hierarchies; the shared
  // predicate conjunction makes the surviving work list right for everyone.
  const std::vector<int64_t> work =
      SurvivingMorsels(consumers[0].hiers, rows, exec);

  std::vector<const PackedColumn*> decode;  // shared gather list
  // The consumers the morsel pass serves; the first of them accounts the
  // scan's selectivity.
  std::vector<int> morsel_consumers;
  bool any_fused = false;
  for (int c = 0; c < num_consumers; ++c) {
    Compiled& comp = compiled[c];
    comp.path = ChooseScanPath(key_spaces[c], !comp.grouped.empty(), work,
                               rows);
    if (comp.path != ScanPath::kOwned) morsel_consumers.push_back(c);
    if (comp.path == ScanPath::kMorselHash) continue;
    CompileLaneTables(comp.needed, key_spaces[c], consumers[c].measures,
                      &comp.lane_tables, &comp.args);
    if (comp.path == ScanPath::kOwned) continue;
    any_fused = true;
    for (HierScanPlan* h : comp.needed) {
      int scratch = -1;
      if (h->packed != nullptr) {
        for (size_t d = 0; d < decode.size(); ++d) {
          if (decode[d] == h->packed) scratch = static_cast<int>(d);
        }
        if (scratch < 0) {
          scratch = static_cast<int>(decode.size());
          decode.push_back(h->packed);
        }
      }
      comp.scratch_of.push_back(scratch);
    }
  }
  FusedScanFn fused_fn = nullptr;
  if (any_fused) {
    exec->fused = true;
    exec->simd = CompiledSimdLevel(ActiveSimdLevel());
    fused_fn = GetFusedScanKernel(exec->simd);
  }

  // Shared-selection setup: the columns the group's common conjunction
  // tests (evaluated once per morsel), plus dedup lists for everything the
  // compacted consumers read — direct int32 code sources and measure
  // sources are each gathered once per morsel, like the packed decode.
  struct SelColumn {
    const PackedColumn* packed = nullptr;    // packed source, or
    const int32_t* codes = nullptr;          // absolute int32 source
    const std::vector<uint8_t>* pass = nullptr;
  };
  std::vector<SelColumn> sel_columns;
  std::vector<const int32_t*> direct;    // codes32 sources to compact
  std::vector<const double*> msources;   // measure sources to compact
  bool any_compact = false;
  for (Compiled& comp : compiled) {
    comp.compact =
        comp.path == ScanPath::kMorselDense && !comp.args.groups.empty();
    any_compact |= comp.compact;
  }
  if (any_compact) {
    for (HierScanPlan& h : consumers[0].hiers) {
      if (h.pass.empty()) continue;
      SelColumn sc;
      sc.pass = &h.pass;
      if (h.packed != nullptr) {
        sc.packed = h.packed;
      } else {
        sc.codes = h.codes;
      }
      sel_columns.push_back(sc);
    }
    // No shared predicate: nothing to select on, keep the plain path.
    if (sel_columns.empty()) {
      any_compact = false;
      for (Compiled& comp : compiled) comp.compact = false;
    }
  }
  if (any_compact) {
    for (Compiled& comp : compiled) {
      if (!comp.compact) continue;
      comp.direct_of.assign(comp.args.columns.size(), -1);
      for (size_t j = 0; j < comp.args.columns.size(); ++j) {
        if (comp.scratch_of[j] >= 0) continue;
        const int32_t* src = comp.args.columns[j].codes32;
        int idx = -1;
        for (size_t d = 0; d < direct.size(); ++d) {
          if (direct[d] == src) idx = static_cast<int>(d);
        }
        if (idx < 0) {
          idx = static_cast<int>(direct.size());
          direct.push_back(src);
        }
        comp.direct_of[j] = idx;
      }
      comp.msource_of.assign(comp.args.measures.size(), -1);
      for (size_t m = 0; m < comp.args.measures.size(); ++m) {
        const double* src = comp.args.measures[m].source;
        if (src == nullptr) continue;
        int idx = -1;
        for (size_t d = 0; d < msources.size(); ++d) {
          if (msources[d] == src) idx = static_cast<int>(d);
        }
        if (idx < 0) {
          idx = static_cast<int>(msources.size());
          msources.push_back(src);
        }
        comp.msource_of[m] = idx;
      }
    }
  }
  // Which decode-list columns actually need a full-morsel gather: those a
  // non-compacted fused consumer runs over. The shared conjunction is
  // tested in L1-sized decode chunks (never materialized morsel-wide) and
  // columns only compacted consumers read are point-gathered at the (few)
  // selected rows — under a selective predicate this is the difference
  // between touching every packed byte per consumer column and touching
  // almost none.
  std::vector<uint8_t> decode_full(decode.size(), any_compact ? 0 : 1);
  if (any_compact) {
    for (const Compiled& comp : compiled) {
      if (comp.path != ScanPath::kMorselDense || comp.compact) continue;
      for (int idx : comp.scratch_of) {
        if (idx >= 0) decode_full[idx] = 1;
      }
    }
  }

  std::vector<std::vector<AggState>> partials(num_consumers);
  for (int c : morsel_consumers) {
    partials[c].assign(work.size(),
                       EmptyAggState(compiled[c].grouped.size(),
                                     consumers[c].measures.size()));
  }

  if (!morsel_consumers.empty() && !work.empty()) {
    auto task = [&](int64_t i) -> Status {
      const int64_t begin = work[i] * kMorselRows;
      const int64_t end = std::min(rows, begin + kMorselRows);
      const int64_t n = end - begin;
      // One gather per packed FK column, shared by every fused consumer.
      // Columns only compacted consumers read skip the full gather (see
      // decode_full) and are point-decoded at the selected rows below.
      std::vector<std::vector<int32_t>> scratch(decode.size());
      for (size_t d = 0; d < decode.size(); ++d) {
        if (!decode_full[d]) continue;
        scratch[d].resize(static_cast<size_t>(n));
        DecodePackedCodes(*decode[d], begin, end, scratch[d].data());
      }
      // The shared conjunction, tested once: `sel` holds the morsel-relative
      // indices of passing rows, in order. Everything a compacted consumer
      // reads is then gathered down to those rows once.
      std::unique_ptr<int32_t[]> sel_storage;  // default-init, no memset
      const int32_t* sel = nullptr;
      std::vector<std::vector<int32_t>> cscratch;
      std::vector<std::vector<int32_t>> cdirect;
      std::vector<std::vector<double>> cmeas;
      int64_t n_pass = 0;
      if (any_compact) {
        sel_storage.reset(new int32_t[static_cast<size_t>(n)]);
        int32_t* out = sel_storage.get();
        sel = out;
        // Chunked test: packed sel columns decode into an L1-resident
        // buffer, so the conjunction pass streams the packed bytes once
        // without a morsel-wide scratch round trip.
        constexpr int64_t kSelChunk = 4096;
        std::vector<std::vector<int32_t>> sel_buf(sel_columns.size());
        for (size_t ci = 0; ci < sel_columns.size(); ++ci) {
          if (sel_columns[ci].packed != nullptr) {
            sel_buf[ci].resize(kSelChunk);
          }
        }
        for (int64_t r0 = 0; r0 < n; r0 += kSelChunk) {
          const int64_t len = std::min(kSelChunk, n - r0);
          for (size_t ci = 0; ci < sel_columns.size(); ++ci) {
            const SelColumn& sc = sel_columns[ci];
            if (sc.packed != nullptr) {
              DecodePackedCodes(*sc.packed, begin + r0, begin + r0 + len,
                                sel_buf[ci].data());
            }
          }
          if (sel_columns.size() == 1) {
            // The common shape (one predicated hierarchy): a tight
            // two-array loop the compiler can keep branch-cheap.
            const SelColumn& sc = sel_columns[0];
            const uint8_t* pass = sc.pass->data();
            const int32_t* codes = sc.packed != nullptr
                                       ? sel_buf[0].data()
                                       : sc.codes + begin + r0;
            for (int64_t r = 0; r < len; ++r) {
              if (pass[codes[r]]) {
                out[n_pass++] = static_cast<int32_t>(r0 + r);
              }
            }
          } else {
            for (int64_t r = 0; r < len; ++r) {
              bool ok = true;
              for (size_t ci = 0; ci < sel_columns.size(); ++ci) {
                const SelColumn& sc = sel_columns[ci];
                const int32_t code = sc.packed != nullptr
                                         ? sel_buf[ci][r]
                                         : sc.codes[begin + r0 + r];
                if (!(*sc.pass)[code]) {
                  ok = false;
                  break;
                }
              }
              if (ok) out[n_pass++] = static_cast<int32_t>(r0 + r);
            }
          }
        }
        const size_t np = static_cast<size_t>(n_pass);
        cscratch.resize(decode.size());
        for (size_t d = 0; d < decode.size(); ++d) {
          cscratch[d].resize(np);
          if (decode_full[d]) {
            for (size_t k = 0; k < np; ++k) {
              cscratch[d][k] = scratch[d][sel[k]];
            }
          } else {
            for (size_t k = 0; k < np; ++k) {
              cscratch[d][k] = decode[d]->CodeAt(begin + sel[k]);
            }
          }
        }
        cdirect.resize(direct.size());
        for (size_t d = 0; d < direct.size(); ++d) {
          cdirect[d].resize(np);
          for (size_t k = 0; k < np; ++k) {
            cdirect[d][k] = direct[d][begin + sel[k]];
          }
        }
        cmeas.resize(msources.size());
        for (size_t d = 0; d < msources.size(); ++d) {
          cmeas[d].resize(np);
          for (size_t k = 0; k < np; ++k) {
            cmeas[d][k] = msources[d][begin + sel[k]];
          }
        }
      }
      for (int c : morsel_consumers) {
        const Compiled& comp = compiled[c];
        if (comp.compact) {
          if (n_pass > 0) {
            FusedScanArgs args = comp.args;
            for (size_t j = 0; j < args.columns.size(); ++j) {
              args.columns[j].packed = nullptr;
              args.columns[j].codes32 =
                  comp.scratch_of[j] >= 0
                      ? cscratch[comp.scratch_of[j]].data()
                      : cdirect[comp.direct_of[j]].data();
            }
            for (size_t m = 0; m < args.measures.size(); ++m) {
              if (comp.msource_of[m] >= 0) {
                args.measures[m].source = cmeas[comp.msource_of[m]].data();
              }
            }
            fused_fn(args, 0, n_pass, &partials[c][i]);
          }
          if (c == morsel_consumers[0]) {
            // Selectivity truth: the shared test visited every row; the
            // kernel only saw the survivors.
            partials[c][i].rows_visited += n - n_pass;
            partials[c][i].rows_passed = n_pass;
          }
        } else if (comp.path == ScanPath::kMorselDense) {
          FusedScanArgs args = comp.args;
          for (size_t j = 0; j < args.columns.size(); ++j) {
            if (comp.scratch_of[j] >= 0) {
              args.columns[j].packed = nullptr;
              args.columns[j].codes32 = scratch[comp.scratch_of[j]].data();
            } else {
              args.columns[j].codes32 += begin;
            }
          }
          for (KernelMeasure& km : args.measures) {
            if (km.source != nullptr) km.source += begin;
          }
          fused_fn(args, 0, n, &partials[c][i]);
        } else {
          AggregateRange(begin, end, compiled[c].needed, compiled[c].grouped,
                         consumers[c].measures, &partials[c][i]);
        }
      }
      return Status::OK();
    };
    ASSESS_RETURN_NOT_OK(RunTasks(*exec, static_cast<int64_t>(work.size()),
                                  exec->max_threads, task));
  }

  // Consumers on the owner-partitioned path, each through the routine its
  // solo scan runs.
  std::vector<AggState> states(num_consumers);
  for (int c = 0; c < num_consumers; ++c) {
    if (compiled[c].path != ScanPath::kOwned) continue;
    ASSESS_ASSIGN_OR_RETURN(states[c],
                            AggregateOwned(compiled[c].args, work, rows, exec));
  }
  for (int c : morsel_consumers) {
    states[c] =
        MergeInMorselOrder(compiled[c].grouped, consumers[c].measures,
                           partials[c]);
  }
  // Selectivity accounting from one consumer: the gather is shared, so the
  // scan visits each surviving row once regardless of consumer count.
  const int accounting =
      morsel_consumers.empty() ? 0 : morsel_consumers[0];
  exec->rows_visited += states[accounting].rows_visited;
  exec->rows_passed += states[accounting].rows_passed;
  CountKernelDispatch(*exec);

  std::vector<Cube> out;
  out.reserve(num_consumers);
  for (int c = 0; c < num_consumers; ++c) {
    out.push_back(FinishCube(compiled[c].grouped, consumers[c].measures,
                             std::move(states[c])));
  }
  return out;
}

// Answers `query` by re-aggregating `data`, a selection-free-or-weaker
// result pre-aggregated at `data_group_by` (a materialized view or a cached
// cube). `preds` holds, partitioned by hierarchy, the predicates still to
// apply on top of `data` (for views: all of the query's; for cached
// results: the ones the cached entry had not already applied). Feasibility
// (level reachability, lossless measures) must have been established by
// RollupAnswersQuery / EntryAnswersQuery.
Result<Cube> AggregateFromRollup(const CubeSchema& schema,
                                 const CubeQuery& query,
                                 const std::vector<std::vector<Predicate>>& preds,
                                 const Cube& data,
                                 const GroupBySet& data_group_by,
                                 MorselExec* exec) {
  std::vector<HierScanPlan> hiers;
  std::vector<MeasureScanPlan> measures;
  int64_t rows = data.NumRows();
  int data_pos = 0;
  for (int h = 0; h < schema.hierarchy_count(); ++h) {
    bool in_data = data_group_by.HasHierarchy(h);
    int pos = in_data ? data_pos++ : -1;
    bool grouped = query.group_by.HasHierarchy(h);
    if (!grouped && preds[h].empty()) continue;
    if (!in_data) {
      return Status::Internal("rollup source lacks a needed hierarchy");
    }
    const Hierarchy& hier = schema.hierarchy(h);
    int data_level = data_group_by.LevelOf(h);
    HierScanPlan plan;
    plan.hierarchy = schema.hierarchy_ptr(h);
    plan.grouped = grouped;
    plan.codes = data.coord_column(pos).data();
    plan.code_domain = hier.LevelCardinality(data_level);
    if (grouped) {
      plan.group_level = query.group_by.LevelOf(h);
      int32_t card = hier.LevelCardinality(data_level);
      plan.owned_group_code.resize(card);
      for (MemberId m = 0; m < card; ++m) {
        plan.owned_group_code[m] =
            hier.RollUpMember(data_level, m, plan.group_level);
      }
    }
    if (!preds[h].empty()) {
      ASSESS_ASSIGN_OR_RETURN(
          plan.pass, BuildConjunctionFlags(hier, preds[h], data_level));
    }
    hiers.push_back(std::move(plan));
  }
  for (int m : query.measures) {
    const MeasureDef& def = schema.measure(m);
    ASSESS_ASSIGN_OR_RETURN(int src, data.MeasureIndex(def.name));
    MeasureScanPlan mp;
    mp.source = data.measure_column(src).data();
    // Counts stored in the source re-aggregate by summation.
    mp.op = def.op == AggOp::kCount ? AggOp::kSum : def.op;
    mp.name = def.name;
    measures.push_back(std::move(mp));
  }
  return Aggregate(rows, hiers, measures, exec);
}

// Copies `cached` with its measure columns selected (by schema measure
// name) in the order `measure_ids` requests — the projection that maps a
// canonically stored cache entry back to the caller's measure list.
// Column copies keep values bit-identical to the originally computed cube.
Result<Cube> ProjectMeasures(const Cube& cached, const CubeSchema& schema,
                             const std::vector<int>& measure_ids) {
  std::vector<LevelRef> levels = cached.levels();
  std::vector<std::vector<MemberId>> coords;
  coords.reserve(levels.size());
  for (int i = 0; i < cached.level_count(); ++i) {
    coords.push_back(cached.coord_column(i));
  }
  std::vector<std::string> names;
  std::vector<std::vector<double>> columns;
  names.reserve(measure_ids.size());
  columns.reserve(measure_ids.size());
  for (int m : measure_ids) {
    const std::string& name = schema.measure(m).name;
    ASSESS_ASSIGN_OR_RETURN(int idx, cached.MeasureIndex(name));
    names.push_back(name);
    columns.push_back(cached.measure_column(idx));
  }
  return Cube::FromColumns(std::move(levels), std::move(coords),
                           std::move(names), std::move(columns));
}

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kBypass:
      return "bypass";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kExactHit:
      return "exact_hit";
    case CacheOutcome::kSubsumptionHit:
      return "subsumption_hit";
  }
  return "unknown";
}

}  // namespace

StarQueryEngine::StarQueryEngine(const StarDatabase* db,
                                 const EngineOptions& options)
    : db_(db),
      use_views_(options.use_views),
      pool_(options.pool ? options.pool : TaskPool::Shared()),
      profiler_(options.profiler) {
  // Default parallelism comes from the pool, not the hardware: inside
  // assessd many sessions share one pool, and each must size itself as one
  // tenant of that pool rather than as the machine's sole owner.
  int forced = ForcedThreadsFromEnv();
  threads_ = forced > 0            ? forced
             : options.threads > 0 ? options.threads
                                   : std::max(1, pool_->parallelism());
  if (options.use_result_cache) {
    cache_ = options.shared_cache
                 ? options.shared_cache
                 : std::make_shared<CubeResultCache>(options.cache);
  }
}

StarQueryEngine::StarQueryEngine(const StarDatabase* db, bool use_views,
                                 int threads)
    : db_(db), use_views_(use_views), pool_(TaskPool::Shared()) {
  int forced = ForcedThreadsFromEnv();
  threads_ = forced > 0 ? forced : std::max(1, threads);
}

namespace {

// Per-thread scan tally, so ExecuteInternal can attribute morsel counts to
// the one get it is timing. Correct because CountMorsels is always called
// on the get's calling thread with that scan's totals (morsel partials are
// summed into a MorselExec first, never counted from workers).
thread_local uint64_t tl_morsels_scanned = 0;
thread_local uint64_t tl_morsels_skipped = 0;

}  // namespace

void StarQueryEngine::CountMorsels(uint64_t scanned, uint64_t skipped) const {
  if (scanned == 0 && skipped == 0) return;
  tl_morsels_scanned += scanned;
  tl_morsels_skipped += skipped;
  morsels_scanned_.fetch_add(scanned, std::memory_order_relaxed);
  morsels_skipped_.fetch_add(skipped, std::memory_order_relaxed);
  if (pool_) pool_->AddScanCounts(scanned, skipped);
}

Result<Cube> StarQueryEngine::Execute(const CubeQuery& query) const {
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bound, db_->Find(query.cube_name));
  return ExecuteInternal(*bound, query);
}

Result<Cube> StarQueryEngine::ExecuteInternal(const BoundCube& bound,
                                              const CubeQuery& query) const {
  Span span("engine.get");
  if (span.active()) span.AddString("cube", query.cube_name);
  WorkloadProfiler* profiler =
      profiler_ != nullptr && profiler_->enabled() ? profiler_ : nullptr;
  const uint64_t scanned_before = tl_morsels_scanned;
  const uint64_t skipped_before = tl_morsels_skipped;
  Stopwatch watch;
  Result<Cube> result = ExecuteGet(bound, query);
  if (span.active()) {
    span.AddString("outcome", CacheOutcomeName(last_cache_outcome_));
    if (result.ok()) span.AddInt("rows", result->NumRows());
  }
  if (profiler != nullptr && result.ok()) {
    const double ms = watch.ElapsedMillis();
    const uint64_t scanned = tl_morsels_scanned - scanned_before;
    const uint64_t skipped = tl_morsels_skipped - skipped_before;
    WorkloadOutcome outcome = WorkloadOutcome::kBypass;
    switch (last_cache_outcome_) {
      case CacheOutcome::kBypass:
        outcome = WorkloadOutcome::kBypass;
        break;
      case CacheOutcome::kMiss:
        outcome = WorkloadOutcome::kMiss;
        break;
      case CacheOutcome::kExactHit:
        outcome = WorkloadOutcome::kExactHit;
        break;
      case CacheOutcome::kSubsumptionHit:
        outcome = WorkloadOutcome::kSubsumptionHit;
        break;
    }
    const FactSnapshot snap = bound.facts().Snapshot();
    WorkloadProfiler::Seen seen = profiler->RecordQuery(
        bound.schema(), CanonicalizeQuery(query), outcome, ms,
        scanned * static_cast<uint64_t>(kMorselRows), skipped, snap.rows);
    if (span.active() && seen.count > 0) {
      span.AddString("lattice", seen.lattice);
      span.AddInt("seen", static_cast<int64_t>(seen.count));
    }
  }
  return result;
}

Result<Cube> StarQueryEngine::ExecuteGet(const BoundCube& bound,
                                         const CubeQuery& query) const {
  ASSESS_FAILPOINT("storage.group_by");
  last_cache_outcome_ = CacheOutcome::kBypass;
  if (cache_ == nullptr) return ExecuteUncached(bound, query, nullptr);
  const CubeSchema& schema = bound.schema();
  for (const Predicate& p : query.predicates) {
    if (p.hierarchy < 0 || p.hierarchy >= schema.hierarchy_count()) {
      // Let the scan path produce its usual diagnostic.
      return ExecuteUncached(bound, query, nullptr);
    }
  }

  // Admission: capture the snapshot the whole get answers at. The cache is
  // keyed by its epoch, so entries are only ever reused for byte-identical
  // table contents, and the scan below reads exactly this prefix.
  FactSnapshot snap = bound.facts().Snapshot();
  CanonicalQuery canon = CanonicalizeQuery(query);
  canon.epoch = snap.epoch;
  std::string key = FingerprintKey(canon);
  if (std::optional<Cube> hit = cache_->FindExact(key)) {
    last_used_view_ = false;
    last_cache_outcome_ = CacheOutcome::kExactHit;
    return ProjectMeasures(*hit, schema, query.measures);
  }
  if (std::optional<CubeResultCache::Snapshot> finer =
          cache_->FindSubsuming(schema, canon)) {
    // Re-aggregate the finer cached result client-side, applying only the
    // predicates the cached entry has not already applied.
    std::unordered_set<std::string> applied;
    for (const Predicate& p : finer->query.predicates) {
      applied.insert(PredicateKey(p));
    }
    std::vector<std::vector<Predicate>> extra(schema.hierarchy_count());
    for (const Predicate& p : canon.predicates) {
      if (!applied.count(PredicateKey(p))) extra[p.hierarchy].push_back(p);
    }
    Span span("engine.rollup");
    MorselExec exec{pool_.get(), threads_};
    auto rolled_or = AggregateFromRollup(schema, query, extra, finer->cube,
                                         finer->query.group_by, &exec);
    CountMorsels(exec.scanned, exec.skipped);
    if (span.active()) {
      span.AddInt("source_rows", finer->cube.NumRows());
      span.AddInt("morsels_scanned", static_cast<int64_t>(exec.scanned));
      span.AddInt("morsels_skipped", static_cast<int64_t>(exec.skipped));
    }
    AddKernelSpanAttrs(span, exec);
    ASSESS_ASSIGN_OR_RETURN(Cube rolled, std::move(rolled_or));
    last_used_view_ = false;
    last_cache_outcome_ = CacheOutcome::kSubsumptionHit;
    cache_->Insert(key, std::move(canon), rolled);
    return rolled;
  }
  ASSESS_ASSIGN_OR_RETURN(Cube cube, ExecuteUncached(bound, query, &snap));
  last_cache_outcome_ = CacheOutcome::kMiss;
  cache_->Insert(key, std::move(canon), cube);
  return cube;
}

Result<Cube> StarQueryEngine::ExecuteUncached(const BoundCube& bound,
                                              const CubeQuery& query,
                                              const FactSnapshot* snap_in) const {
  ASSESS_FAILPOINT("storage.scan");
  const CubeSchema& schema = bound.schema();
  last_used_view_ = false;

  // Partition predicates by hierarchy.
  std::vector<std::vector<Predicate>> preds(schema.hierarchy_count());
  for (const Predicate& p : query.predicates) {
    if (p.hierarchy < 0 || p.hierarchy >= schema.hierarchy_count()) {
      return Status::InvalidArgument("predicate on unknown hierarchy");
    }
    preds[p.hierarchy].push_back(p);
  }

  if (query.group_by.Arity() > 16) {
    return Status::NotSupported("group-by sets beyond 16 levels");
  }

  // Admission snapshot: the consistent committed prefix this get answers
  // at (passed down by ExecuteGet so the cache key's epoch and the scan
  // agree; taken here for uncached paths).
  const FactTable& facts = bound.facts();
  FactSnapshot snap = snap_in != nullptr ? *snap_in : facts.Snapshot();

  int view_index = -1;
  std::shared_ptr<const ViewSet> view_set;
  if (use_views_) {
    view_set = bound.views_snapshot();
    // Views lag fact commits by design (facts publish first, views after);
    // a set stamped at another epoch aggregates different table contents,
    // so the scan falls back to the facts rather than mix epochs.
    if (view_set->epoch == snap.epoch) {
      view_index = PickBestView(schema, query, view_set->views);
    }
  }
  if (view_index >= 0) {
    last_used_view_ = true;
    const MaterializedView& view = view_set->views[view_index];
    Span span("engine.scan");
    MorselExec exec{pool_.get(), threads_};
    auto result = AggregateFromRollup(schema, query, preds, view.data,
                                      view.group_by, &exec);
    CountMorsels(exec.scanned, exec.skipped);
    if (span.active()) {
      span.AddString("source", "view");
      span.AddInt("rows", view.data.NumRows());
      span.AddInt("epoch", static_cast<int64_t>(snap.epoch));
      span.AddInt("morsels_scanned", static_cast<int64_t>(exec.scanned));
      span.AddInt("morsels_skipped", static_cast<int64_t>(exec.skipped));
    }
    AddKernelSpanAttrs(span, exec);
    return result;
  }

  Span span("engine.scan");
  std::vector<HierScanPlan> hiers;
  std::vector<MeasureScanPlan> measures;
  const int64_t rows = snap.rows;
  // Build or extend the packed/zone accelerators up to the snapshot before
  // reading any dimension state: every code they cover then predates the
  // dimension rows visible below, keeping lane tables and pass flags large
  // enough for every code a scan or pruner can meet.
  facts.EnsureDerived(&snap);
  for (int h = 0; h < schema.hierarchy_count(); ++h) {
    bool grouped = query.group_by.HasHierarchy(h);
    if (!grouped && preds[h].empty()) continue;
    const DimensionTable& dim = bound.dimension(h);
    HierScanPlan plan;
    plan.hierarchy = schema.hierarchy_ptr(h);
    plan.grouped = grouped;
    plan.codes = snap.fk[h];
    plan.packed = &snap.derived->packed.dims[h];
    plan.code_domain = dim.NumRows();
    plan.fact_dim = h;
    if (grouped) {
      plan.group_level = query.group_by.LevelOf(h);
      plan.external_group_code = &dim.level_column(plan.group_level);
    }
    if (!preds[h].empty()) {
      ASSESS_ASSIGN_OR_RETURN(plan.pass,
                              BuildDimensionRowFlags(dim, preds[h]));
    }
    hiers.push_back(std::move(plan));
  }
  for (int m : query.measures) {
    const MeasureDef& def = schema.measure(m);
    MeasureScanPlan mp;
    mp.source = snap.measures[m];
    mp.op = def.op;
    mp.name = def.name;
    measures.push_back(std::move(mp));
  }
  MorselExec exec{pool_.get(), threads_};
  // Zone maps pay off only when there is a predicate to prune with and more
  // than one morsel to prune; extension for appended suffixes is
  // incremental, so this stays one boundary-morsel recompute per commit.
  bool predicated = false;
  for (const HierScanPlan& h : hiers) {
    if (!h.pass.empty()) predicated = true;
  }
  if (predicated && rows > kMorselRows) {
    exec.zones = &snap.derived->zones;
  }
  auto result = Aggregate(rows, hiers, measures, &exec);
  CountMorsels(exec.scanned, exec.skipped);
  if (span.active()) {
    span.AddString("source", "fact");
    span.AddInt("rows", rows);
    span.AddInt("epoch", static_cast<int64_t>(snap.epoch));
    span.AddInt("morsels_scanned", static_cast<int64_t>(exec.scanned));
    span.AddInt("morsels_skipped", static_cast<int64_t>(exec.skipped));
  }
  AddKernelSpanAttrs(span, exec);
  return result;
}

Result<Cube> StarQueryEngine::AggregateFactRange(const BoundCube& bound,
                                                 const GroupBySet& group_by,
                                                 int64_t from,
                                                 int64_t to) const {
  const CubeSchema& schema = bound.schema();
  FactSnapshot snap = bound.facts().Snapshot();
  if (from < 0 || to < from || to > snap.rows) {
    return Status::InvalidArgument(
        "fact range [" + std::to_string(from) + ", " + std::to_string(to) +
        ") is outside the committed prefix of '" + bound.facts().name() +
        "' (" + std::to_string(snap.rows) + " rows)");
  }
  Span span("engine.delta_scan");
  std::vector<HierScanPlan> hiers;
  std::vector<MeasureScanPlan> measures;
  for (int h = 0; h < schema.hierarchy_count(); ++h) {
    if (!group_by.HasHierarchy(h)) continue;
    const DimensionTable& dim = bound.dimension(h);
    HierScanPlan plan;
    plan.hierarchy = schema.hierarchy_ptr(h);
    plan.grouped = true;
    plan.codes = snap.fk[h] + from;
    plan.code_domain = dim.NumRows();
    plan.group_level = group_by.LevelOf(h);
    plan.external_group_code = &dim.level_column(plan.group_level);
    hiers.push_back(std::move(plan));
  }
  for (int m = 0; m < schema.measure_count(); ++m) {
    const MeasureDef& def = schema.measure(m);
    MeasureScanPlan mp;
    mp.source = snap.measures[m] + from;
    mp.op = def.op;
    mp.name = def.name;
    measures.push_back(std::move(mp));
  }
  MorselExec exec{pool_.get(), threads_};
  auto result = Aggregate(to - from, hiers, measures, &exec);
  CountMorsels(exec.scanned, exec.skipped);
  if (span.active()) {
    span.AddString("source", "fact_delta");
    span.AddInt("rows", to - from);
    span.AddInt("epoch", static_cast<int64_t>(snap.epoch));
  }
  AddKernelSpanAttrs(span, exec);
  return result;
}

Result<std::vector<Cube>> StarQueryEngine::ExecuteSharedScan(
    const std::vector<CubeQuery>& queries, uint64_t pinned_epoch) const {
  if (queries.empty()) return std::vector<Cube>();
  ASSESS_FAILPOINT("mqo.shared_scan");
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bound,
                          db_->Find(queries[0].cube_name));
  const CubeSchema& schema = bound->schema();

  // Validate the group contract: one cube, one canonical predicate
  // conjunction. Violations are collector bugs, not user errors.
  std::vector<CanonicalQuery> canons;
  canons.reserve(queries.size());
  std::string shared_pred_key;
  for (size_t i = 0; i < queries.size(); ++i) {
    const CubeQuery& q = queries[i];
    if (q.cube_name != queries[0].cube_name) {
      return Status::Internal("shared scan mixes cubes");
    }
    if (q.group_by.Arity() > 16) {
      return Status::NotSupported("group-by sets beyond 16 levels");
    }
    for (const Predicate& p : q.predicates) {
      if (p.hierarchy < 0 || p.hierarchy >= schema.hierarchy_count()) {
        return Status::InvalidArgument("predicate on unknown hierarchy");
      }
    }
    CanonicalQuery canon = CanonicalizeQuery(q);
    std::string pred_key;
    for (const Predicate& p : canon.predicates) pred_key += PredicateKey(p);
    if (i == 0) {
      shared_pred_key = std::move(pred_key);
    } else if (pred_key != shared_pred_key) {
      return Status::Internal("shared scan mixes predicate conjunctions");
    }
    canons.push_back(std::move(canon));
  }

  const FactTable& facts = bound->facts();
  FactSnapshot snap = facts.Snapshot();
  if (pinned_epoch != 0 && snap.epoch != pinned_epoch) {
    return Status::Unavailable(
        "shared scan epoch changed (an ingest raced the batch)");
  }
  facts.EnsureDerived(&snap);
  const int64_t rows = snap.rows;

  Span span("engine.shared_scan");
  if (span.active()) {
    span.AddString("cube", queries[0].cube_name);
    span.AddInt("queries", static_cast<int64_t>(queries.size()));
    span.AddInt("rows", rows);
    span.AddInt("epoch", static_cast<int64_t>(snap.epoch));
  }

  // Compile each consumer's fact-scan plan. Views are deliberately
  // bypassed: every consumer must aggregate the same source rows for the
  // shared gather to be the one scan they all ride.
  std::vector<ConsumerScan> consumers;
  consumers.reserve(queries.size());
  for (const CubeQuery& query : queries) {
    std::vector<std::vector<Predicate>> preds(schema.hierarchy_count());
    for (const Predicate& p : query.predicates) {
      preds[p.hierarchy].push_back(p);
    }
    ConsumerScan consumer;
    for (int h = 0; h < schema.hierarchy_count(); ++h) {
      bool grouped = query.group_by.HasHierarchy(h);
      if (!grouped && preds[h].empty()) continue;
      const DimensionTable& dim = bound->dimension(h);
      HierScanPlan plan;
      plan.hierarchy = schema.hierarchy_ptr(h);
      plan.grouped = grouped;
      plan.codes = snap.fk[h];
      plan.packed = &snap.derived->packed.dims[h];
      plan.code_domain = dim.NumRows();
      plan.fact_dim = h;
      if (grouped) {
        plan.group_level = query.group_by.LevelOf(h);
        plan.external_group_code = &dim.level_column(plan.group_level);
      }
      if (!preds[h].empty()) {
        ASSESS_ASSIGN_OR_RETURN(plan.pass,
                                BuildDimensionRowFlags(dim, preds[h]));
      }
      consumer.hiers.push_back(std::move(plan));
    }
    for (int m : query.measures) {
      const MeasureDef& def = schema.measure(m);
      MeasureScanPlan mp;
      mp.source = snap.measures[m];
      mp.op = def.op;
      mp.name = def.name;
      consumer.measures.push_back(std::move(mp));
    }
    consumers.push_back(std::move(consumer));
  }

  MorselExec exec{pool_.get(), threads_};
  bool predicated = false;
  for (const HierScanPlan& h : consumers[0].hiers) {
    if (!h.pass.empty()) predicated = true;
  }
  if (predicated && rows > kMorselRows) {
    exec.zones = &snap.derived->zones;
  }
  auto result = AggregateShared(rows, consumers, &exec);
  CountMorsels(exec.scanned, exec.skipped);
  if (span.active()) {
    span.AddInt("morsels_scanned", static_cast<int64_t>(exec.scanned));
    span.AddInt("morsels_skipped", static_cast<int64_t>(exec.skipped));
  }
  AddKernelSpanAttrs(span, exec);
  ASSESS_ASSIGN_OR_RETURN(std::vector<Cube> cubes, std::move(result));

  // Seed the result cache: one insert per consumer, keyed exactly as the
  // solo path would key it, so batch members executing right after the
  // shared scan take exact hits.
  if (cache_ != nullptr) {
    for (size_t i = 0; i < cubes.size(); ++i) {
      canons[i].epoch = snap.epoch;
      std::string key = FingerprintKey(canons[i]);
      cache_->Insert(key, std::move(canons[i]), cubes[i]);
    }
  }
  return cubes;
}

Result<Cube> StarQueryEngine::ExecuteJoined(
    const CubeQuery& target, const CubeQuery& benchmark,
    const std::vector<std::string>& join_levels, bool left_outer) const {
  ASSESS_FAILPOINT("storage.join");
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bt, db_->Find(target.cube_name));
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bb, db_->Find(benchmark.cube_name));
  Span span("engine.join");
  ASSESS_ASSIGN_OR_RETURN(Cube left, ExecuteInternal(*bt, target));
  ASSESS_ASSIGN_OR_RETURN(Cube right, ExecuteInternal(*bb, benchmark));
  std::string prefix = benchmark.alias.empty() ? "benchmark" : benchmark.alias;
  return JoinCubes(left, right, join_levels, prefix, left_outer);
}

Result<Cube> StarQueryEngine::ExecuteConcatJoined(
    const CubeQuery& target, const CubeQuery& benchmark,
    const std::vector<std::string>& join_levels,
    const std::string& order_level, int expected,
    const std::vector<std::vector<std::string>>& slot_names,
    bool require_complete) const {
  ASSESS_FAILPOINT("storage.join");
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bt, db_->Find(target.cube_name));
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bb, db_->Find(benchmark.cube_name));
  Span span("engine.join");
  ASSESS_ASSIGN_OR_RETURN(Cube left, ExecuteInternal(*bt, target));
  ASSESS_ASSIGN_OR_RETURN(Cube right, ExecuteInternal(*bb, benchmark));
  return ConcatJoinCubes(left, right, join_levels, order_level, expected,
                         slot_names, require_complete);
}

Result<Cube> StarQueryEngine::ExecutePivoted(const CubeQuery& query_all,
                                             const PivotSpec& spec) const {
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bound,
                          db_->Find(query_all.cube_name));
  Span span("engine.pivot");
  ASSESS_ASSIGN_OR_RETURN(Cube all, ExecuteInternal(*bound, query_all));
  return PivotCube(all, spec.level, spec.reference_member, spec.other_members,
                   spec.measure_names, spec.require_complete);
}

Result<int64_t> StarQueryEngine::MaterializeView(
    StarDatabase* db, const std::string& cube_name,
    const std::vector<std::string>& level_names,
    const std::string& view_name) const {
  ASSESS_ASSIGN_OR_RETURN(BoundCube* bound, db->FindMutable(cube_name));
  const CubeSchema& schema = bound->schema();
  CubeQuery query;
  query.cube_name = cube_name;
  ASSESS_ASSIGN_OR_RETURN(query.group_by,
                          GroupBySet::FromLevelNames(schema, level_names));
  for (int m = 0; m < schema.measure_count(); ++m) query.measures.push_back(m);

  // Build the view from base data only (never from another view), at this
  // engine's parallelism — the scan is deterministic at every thread count.
  StarQueryEngine base_engine(db_, /*use_views=*/false, threads_);
  ASSESS_ASSIGN_OR_RETURN(Cube data, base_engine.ExecuteInternal(*bound, query));
  int64_t rows = data.NumRows();
  bound->AddView(MaterializedView{view_name, query.group_by, std::move(data)});
  return rows;
}

}  // namespace assess
