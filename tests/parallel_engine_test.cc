// Equivalence of the engine's partitioned parallel aggregation with the
// serial path: same cells, same aggregates, for every operator and for all
// three push-down entry points.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "assess/session.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/task_pool.h"
#include "obs/trace.h"
#include "ssb/ssb_generator.h"
#include "ssb/workload.h"
#include "storage/star_query_engine.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::CellMap;

// Parallel partial sums reduce in a different order than the serial scan,
// so aggregates may differ in the last ulp; compare with a relative bound.
void ExpectCellsNear(const Cube& expected, const Cube& actual,
                     const std::string& measure) {
  auto lhs = CellMap(expected, measure);
  auto rhs = CellMap(actual, measure);
  ASSERT_EQ(lhs.size(), rhs.size()) << measure;
  for (const auto& [coord, value] : lhs) {
    auto it = rhs.find(coord);
    ASSERT_NE(it, rhs.end()) << measure;
    EXPECT_NEAR(value, it->second, 1e-9 * (1.0 + std::fabs(value)))
        << measure;
  }
}

// Coordinate -> raw bit pattern of one measure, for *bit-identical*
// comparison: the engine promises the same output bits at every thread
// count, stronger than ExpectCellsNear's ulp tolerance.
std::map<std::vector<std::string>, uint64_t> BitMap(
    const Cube& cube, const std::string& measure) {
  std::map<std::vector<std::string>, uint64_t> out;
  for (const auto& [coord, value] : CellMap(cube, measure)) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    out[coord] = bits;
  }
  return out;
}

class ParallelEngineTest : public ::testing::Test {
 protected:
  ParallelEngineTest() {
    SsbConfig config;
    config.scale_factor = 0.05;  // 300k facts: above the parallel threshold
    db_ = std::move(BuildSsbDatabase(config)).value();
    ssb_ = *db_->Find("SSB");
  }

  CubeQuery Query(const std::vector<std::string>& by,
                  std::vector<Predicate> preds,
                  const std::vector<std::string>& measures) {
    auto q = CubeQuery::Make(ssb_->schema(), "SSB", by, std::move(preds),
                             measures);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  std::unique_ptr<StarDatabase> db_;
  const BoundCube* ssb_ = nullptr;
};

TEST_F(ParallelEngineTest, MatchesSerialAcrossGroupBys) {
  StarQueryEngine serial(db_.get(), true, 1);
  StarQueryEngine parallel(db_.get(), true, 4);
  const std::vector<std::vector<std::string>> group_bys = {
      {"part"}, {"c_nation", "s_region"}, {"month", "mfgr"}, {}};
  for (const auto& by : group_bys) {
    CubeQuery q = Query(by, {}, {"revenue", "quantity"});
    Cube expected = *serial.Execute(q);
    Cube actual = *parallel.Execute(q);
    ExpectCellsNear(expected, actual, "revenue");
    ExpectCellsNear(expected, actual, "quantity");
  }
}

TEST_F(ParallelEngineTest, MatchesSerialWithPredicates) {
  StarQueryEngine serial(db_.get(), true, 1);
  StarQueryEngine parallel(db_.get(), true, 3);
  CubeQuery q = Query({"customer"},
                      {{3, 3, PredicateOp::kEquals, {"ASIA"}},
                       {0, 2, PredicateOp::kIn, {"1997", "1998"}}},
                      {"revenue"});
  Cube expected = *serial.Execute(q);
  Cube actual = *parallel.Execute(q);
  EXPECT_GT(expected.NumRows(), 0);
  ExpectCellsNear(expected, actual, "revenue");
}

TEST_F(ParallelEngineTest, AllAggregationOperatorsMerge) {
  // Build a cube whose measures exercise every operator, large enough to
  // trigger the parallel path.
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  constexpr int kGroups = 100;
  DimensionTable dim("k", hier);
  for (int g = 0; g < kGroups; ++g) {
    dim.AddRow({hier->AddMember(0, "g" + std::to_string(g))});
  }
  auto schema = std::make_shared<CubeSchema>("T");
  schema->AddHierarchy(hier);
  schema->AddMeasure({"s", AggOp::kSum});
  schema->AddMeasure({"a", AggOp::kAvg});
  schema->AddMeasure({"lo", AggOp::kMin});
  schema->AddMeasure({"hi", AggOp::kMax});
  schema->AddMeasure({"n", AggOp::kCount});
  FactTable facts("T", 1, 5);
  Rng rng(3);
  constexpr int64_t kRows = 200000;
  facts.Reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    double v = static_cast<double>(rng.Uniform(1000));
    facts.AddRow({static_cast<int32_t>(rng.Uniform(kGroups))},
                 {v, v, v, v, v});
  }
  StarDatabase db;
  ASSERT_TRUE(db.Register("T", std::make_unique<BoundCube>(
                                   schema, std::vector<DimensionTable>{dim},
                                   std::move(facts)))
                  .ok());
  StarQueryEngine serial(&db, true, 1);
  StarQueryEngine parallel(&db, true, 7);
  CubeQuery q = *CubeQuery::Make(*schema, "T", {"k"}, {},
                                 {"s", "a", "lo", "hi", "n"});
  Cube expected = *serial.Execute(q);
  Cube actual = *parallel.Execute(q);
  ASSERT_EQ(expected.NumRows(), kGroups);
  for (const char* m : {"s", "a", "lo", "hi", "n"}) {
    auto lhs = CellMap(expected, m);
    auto rhs = CellMap(actual, m);
    ASSERT_EQ(lhs.size(), rhs.size()) << m;
    for (const auto& [coord, value] : lhs) {
      EXPECT_NEAR(value, rhs[coord], 1e-9 * (1.0 + std::fabs(value))) << m;
    }
  }
}

TEST_F(ParallelEngineTest, SmallScansStaySerial) {
  // Below the threshold the parallel engine must not spawn (observable only
  // through identical results, but this pins the configuration path).
  SsbConfig config;
  config.scale_factor = 0.002;
  auto small = std::move(BuildSsbDatabase(config)).value();
  StarQueryEngine serial(small.get(), true, 1);
  StarQueryEngine parallel(small.get(), true, 8);
  const BoundCube* cube = *small->Find("SSB");
  CubeQuery q = *CubeQuery::Make(cube->schema(), "SSB", {"brand"}, {},
                                 {"revenue"});
  // Below the threshold both run serially: bit-exact equality holds.
  EXPECT_EQ(CellMap(*serial.Execute(q), "revenue"),
            CellMap(*parallel.Execute(q), "revenue"));
}

TEST_F(ParallelEngineTest, FullAssessPipelineUnderParallelEngine) {
  // The executor wires the engine internally; equivalence at statement
  // level across thread counts.
  AssessSession session(db_.get());
  auto expected = session.Query(SsbWorkload()[2].text);
  ASSERT_TRUE(expected.ok());
  // A second engine with threads directly:
  StarQueryEngine parallel(db_.get(), true, 4);
  auto analyzed = session.Prepare(SsbWorkload()[2].text);
  ASSERT_TRUE(analyzed.ok());
  Cube target = *parallel.Execute(analyzed->target);
  Cube benchmark = *parallel.Execute(analyzed->benchmark);
  EXPECT_GT(target.NumRows(), 0);
  EXPECT_GT(benchmark.NumRows(), 0);
  EXPECT_EQ(target.NumRows() + benchmark.NumRows(),
            [&] {
              StarQueryEngine serial(db_.get(), true, 1);
              return serial.Execute(analyzed->target)->NumRows() +
                     serial.Execute(analyzed->benchmark)->NumRows();
            }());
}

TEST_F(ParallelEngineTest, BitIdenticalAcrossThreadCountsAndRuns) {
  // The determinism contract: every output bit is a function of the data
  // alone. threads=1, threads=2 and threads=8 — and repeated runs of each —
  // must agree exactly, not just within float tolerance: each key folds in
  // row order by its owning partition, or morsel partials merge in morsel
  // index order, regardless of which thread did the work.
  const std::vector<std::vector<std::string>> group_bys = {
      {"part"}, {"c_nation", "s_region"}, {}};
  for (const auto& by : group_bys) {
    CubeQuery unpredicated = Query(by, {}, {"revenue", "quantity"});
    CubeQuery predicated =
        Query(by, {{3, 3, PredicateOp::kEquals, {"ASIA"}}}, {"revenue"});
    StarQueryEngine baseline(db_.get(), false, 1);
    auto expected_rev = BitMap(*baseline.Execute(unpredicated), "revenue");
    auto expected_qty = BitMap(*baseline.Execute(unpredicated), "quantity");
    auto expected_pred = BitMap(*baseline.Execute(predicated), "revenue");
    for (int threads : {1, 2, 8}) {
      StarQueryEngine engine(db_.get(), false, threads);
      for (int run = 0; run < 2; ++run) {
        Cube cube = *engine.Execute(unpredicated);
        EXPECT_EQ(expected_rev, BitMap(cube, "revenue"))
            << "threads=" << threads << " run=" << run;
        EXPECT_EQ(expected_qty, BitMap(cube, "quantity"))
            << "threads=" << threads << " run=" << run;
        EXPECT_EQ(expected_pred, BitMap(*engine.Execute(predicated), "revenue"))
            << "threads=" << threads << " run=" << run;
      }
    }
  }
}

TEST_F(ParallelEngineTest, ZoneMapsSkipMorselsOnClusteredData) {
  // A table clustered on the dimension key — code = row / kMorselRows — is
  // the best case for zone maps: an equality predicate touches exactly one
  // morsel and every other one is proven empty and skipped without a scan.
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  constexpr int kChunks = 4;
  DimensionTable dim("k", hier);
  for (int g = 0; g < kChunks; ++g) {
    dim.AddRow({hier->AddMember(0, "g" + std::to_string(g))});
  }
  auto schema = std::make_shared<CubeSchema>("T");
  schema->AddHierarchy(hier);
  schema->AddMeasure({"s", AggOp::kSum});
  FactTable facts("T", 1, 1);
  const int64_t rows = kChunks * kMorselRows;
  facts.Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    facts.AddRow({static_cast<int32_t>(i / kMorselRows)}, {1.0});
  }
  StarDatabase db;
  ASSERT_TRUE(db.Register("T", std::make_unique<BoundCube>(
                                   schema, std::vector<DimensionTable>{dim},
                                   std::move(facts)))
                  .ok());
  StarQueryEngine engine(&db, false, 2);
  CubeQuery q = *CubeQuery::Make(*schema, "T", {},
                                 {{0, 0, PredicateOp::kEquals, {"g2"}}},
                                 {"s"});
  Cube cube = *engine.Execute(q);
  ASSERT_EQ(cube.NumRows(), 1);
  EXPECT_EQ(CellMap(cube, "s")[{}], static_cast<double>(kMorselRows));
  ScanStats stats = engine.scan_stats();
  EXPECT_EQ(stats.morsels_scanned, 1u);
  EXPECT_EQ(stats.morsels_skipped, static_cast<uint64_t>(kChunks - 1));

  // An unpredicated scan of the same table must not skip anything.
  CubeQuery all = *CubeQuery::Make(*schema, "T", {"k"}, {}, {"s"});
  Cube full = *engine.Execute(all);
  EXPECT_EQ(full.NumRows(), kChunks);
  stats = engine.scan_stats();
  EXPECT_EQ(stats.morsels_scanned, 1u + kChunks);
  EXPECT_EQ(stats.morsels_skipped, static_cast<uint64_t>(kChunks - 1));
}

TEST_F(ParallelEngineTest, AssessResultBitIdenticalAcrossSessionThreads) {
  // Statement-level determinism: whole AssessResults — cells, measures,
  // labels, chosen plan, pushed SQL — agree bit-for-bit across sessions
  // configured at different thread counts, and across repeated runs.
  const std::string statement = SsbWorkload()[2].text;
  ExecutorOptions serial_options;
  serial_options.threads = 1;
  AssessSession serial(db_.get(), serial_options);
  auto expected = serial.Query(statement);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  for (int threads : {2, 8}) {
    ExecutorOptions options;
    options.threads = threads;
    AssessSession session(db_.get(), options);
    for (int run = 0; run < 2; ++run) {
      auto actual = session.Query(statement);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(expected->plan, actual->plan) << threads;
      EXPECT_EQ(expected->sql, actual->sql) << threads;
      const Cube& lhs = expected->cube;
      const Cube& rhs = actual->cube;
      ASSERT_EQ(lhs.NumRows(), rhs.NumRows()) << threads;
      ASSERT_EQ(lhs.measure_count(), rhs.measure_count()) << threads;
      for (int l = 0; l < lhs.level_count(); ++l) {
        for (int64_t r = 0; r < lhs.NumRows(); ++r) {
          ASSERT_EQ(lhs.CoordName(r, l), rhs.CoordName(r, l)) << threads;
        }
      }
      for (int m = 0; m < lhs.measure_count(); ++m) {
        for (int64_t r = 0; r < lhs.NumRows(); ++r) {
          double x = lhs.MeasureAt(r, m), y = rhs.MeasureAt(r, m);
          uint64_t xb = 0, yb = 0;
          std::memcpy(&xb, &x, sizeof(x));
          std::memcpy(&yb, &y, sizeof(y));
          ASSERT_EQ(xb, yb)
              << "threads=" << threads << " row " << r << " measure " << m;
        }
      }
      EXPECT_EQ(lhs.labels(), rhs.labels()) << threads;
    }
  }
}

TEST_F(ParallelEngineTest, ConcurrentQueriesShareOnePool) {
  // The assessd deployment in miniature: many sessions, one pool. Every
  // concurrent query must come back bit-identical to the serial baseline
  // (this test is the TSan workout for the pool's job multiplexing).
  auto pool = std::make_shared<TaskPool>(4);
  CubeQuery q = Query({"c_nation", "s_region"},
                      {{0, 2, PredicateOp::kIn, {"1997", "1998"}}},
                      {"revenue"});
  StarQueryEngine baseline(db_.get(), false, 1);
  const auto expected = BitMap(*baseline.Execute(q), "revenue");

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, -1);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      EngineOptions options;
      options.use_views = false;
      options.use_result_cache = false;
      options.threads = 3;
      options.pool = pool;
      StarQueryEngine engine(db_.get(), options);
      int bad = 0;
      for (int run = 0; run < 3; ++run) {
        auto cube = engine.Execute(q);
        if (!cube.ok() || BitMap(*cube, "revenue") != expected) ++bad;
      }
      mismatches[c] = bad;
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
  }
  EXPECT_EQ(pool->stats().queue_depth, 0u);
}

// ---------------------------------------------------------------------------
// The engine against a naive reference evaluator, bit for bit.
// ---------------------------------------------------------------------------

// A star of two-level dimensions (fine member == fact code, coarse parent
// drawn at random) whose raw codes and measure values the reference reads
// directly. Measures: one per aggregation operator, all fed the same value.
struct RefStar {
  std::unique_ptr<StarDatabase> db;
  std::shared_ptr<CubeSchema> schema;
  std::vector<std::vector<int32_t>> fks;  // [dim][row]
  std::vector<double> values;             // [row]
};

RefStar BuildRefStar(uint64_t seed, const std::vector<int>& fine,
                     const std::vector<int>& coarse, int64_t rows,
                     bool integer_values) {
  Rng rng(seed);
  RefStar star;
  star.schema = std::make_shared<CubeSchema>("R");
  std::vector<DimensionTable> dims;
  const int num_dims = static_cast<int>(fine.size());
  for (int d = 0; d < num_dims; ++d) {
    const std::string tag = std::to_string(d);
    auto hier = std::make_shared<Hierarchy>("D" + tag);
    hier->AddLevel("d" + tag + "_fine");
    hier->AddLevel("d" + tag + "_coarse");
    for (int c = 0; c < coarse[d]; ++c) {
      hier->AddMember(1, "c" + tag + "_" + std::to_string(c));
    }
    DimensionTable dim("D" + tag, hier);
    for (int f = 0; f < fine[d]; ++f) {
      MemberId m = hier->AddMember(0, "f" + tag + "_" + std::to_string(f));
      MemberId parent = static_cast<MemberId>(rng.Uniform(coarse[d]));
      hier->SetParent(0, m, parent);
      dim.AddRow({m, parent});
    }
    star.schema->AddHierarchy(hier);
    dims.push_back(std::move(dim));
  }
  star.schema->AddMeasure({"s", AggOp::kSum});
  star.schema->AddMeasure({"a", AggOp::kAvg});
  star.schema->AddMeasure({"lo", AggOp::kMin});
  star.schema->AddMeasure({"hi", AggOp::kMax});
  star.schema->AddMeasure({"n", AggOp::kCount});
  FactTable facts("R", num_dims, 5);
  facts.Reserve(rows);
  star.fks.assign(num_dims, std::vector<int32_t>(rows));
  star.values.resize(rows);
  std::vector<int32_t> row_fks(num_dims);
  for (int64_t r = 0; r < rows; ++r) {
    for (int d = 0; d < num_dims; ++d) {
      row_fks[d] = static_cast<int32_t>(rng.Uniform(fine[d]));
      star.fks[d][r] = row_fks[d];
    }
    const double v = integer_values
                         ? static_cast<double>(rng.Uniform(2001)) - 1000.0
                         : rng.NextDouble() * 1000.0 - 500.0;
    star.values[r] = v;
    facts.AddRow(row_fks, {v, v, v, v, v});
  }
  star.db = std::make_unique<StarDatabase>();
  EXPECT_TRUE(star.db
                  ->Register("R", std::make_unique<BoundCube>(
                                      star.schema, std::move(dims),
                                      std::move(facts)))
                  .ok());
  return star;
}

// The reference: every row, in row order, tested against the predicates
// and folded into a std::map keyed by its group coordinates — no morsels,
// lanes, kernels, pool or merge. `levels[d]` is the grouped level of
// dimension d (-1: not grouped); `pins` restrict (dim, level) to a member.
struct Pin {
  int dim;
  int level;
  MemberId member;
};

// Cells as (packed coordinates, bits of s/a/lo/hi/n), sorted by
// coordinates: 16 bits per grouped level (every test level has fewer
// members).
using CellBits =
    std::vector<std::pair<uint64_t, std::array<uint64_t, 5>>>;

std::array<uint64_t, 5> Bits(const std::array<double, 5>& values) {
  std::array<uint64_t, 5> bits;
  std::memcpy(bits.data(), values.data(), sizeof(bits));
  return bits;
}

CellBits NaiveBits(
    const RefStar& star, const std::vector<int>& levels,
    const std::vector<Pin>& pins) {
  struct Acc {
    double s = 0.0, a = 0.0, n = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    int64_t a_count = 0;
  };
  auto member = [&](int d, int64_t r, int level) {
    const MemberId fine = star.fks[d][r];
    return level == 0 ? fine
                      : star.schema->hierarchy(d).RollUpMember(0, fine, level);
  };
  std::map<uint64_t, Acc> cells;
  for (size_t r = 0; r < star.values.size(); ++r) {
    bool pass = true;
    for (const Pin& pin : pins) {
      pass &= member(pin.dim, r, pin.level) == pin.member;
    }
    if (!pass) continue;
    uint64_t coord = 0;
    int shift = 0;
    for (size_t d = 0; d < levels.size(); ++d) {
      if (levels[d] < 0) continue;
      coord |= static_cast<uint64_t>(member(d, r, levels[d])) << shift;
      shift += 16;
    }
    Acc& acc = cells[coord];
    const double v = star.values[r];
    acc.s += v;
    acc.a += v;
    acc.a_count += 1;
    acc.lo = std::min(acc.lo, v);
    acc.hi = std::max(acc.hi, v);
    acc.n += 1;
  }
  CellBits out;
  for (const auto& [coord, acc] : cells) {
    out.emplace_back(coord, Bits({acc.s, acc.a / acc.a_count, acc.lo,
                                  acc.hi, acc.n}));
  }
  return out;
}

TEST(NaiveReferenceTest, EngineMatchesRowOrderFoldBitForBit) {
  // Every case spans >= 3 morsels unless it is the single-morsel case. The
  // owner-partitioned path and single-morsel scans accumulate each key in
  // row order, so they must match the reference on arbitrary doubles; the
  // per-morsel path merges morsel partials, so its cases use integer
  // values (exact under any summation order). `kernel` is the path the
  // scan span must report.
  struct Case {
    const char* name;
    std::vector<int> fine, coarse;
    int64_t rows;
    bool integer_values;
    std::vector<int> levels;
    std::vector<Pin> pins;
    const char* kernel;
  };
  const int64_t kRows = 3 * kMorselRows + 777;
  const std::vector<Case> cases = {
      {"below the crossover", {20, 30}, {3, 4}, kRows, true, {0, 0}, {},
       "fused_dense"},
      {"above the crossover", {100, 120}, {3, 4}, kRows, false, {0, 0}, {},
       "partitioned_dense"},
      {"large relative to the rows", {300, 400}, {3, 4}, kRows, true, {0, 0},
       {}, "fused_dense"},
      {"beyond the dense limit", {600, 500}, {3, 4}, kRows, true, {0, 0}, {},
       "hash"},
      {"sibling: last grouped hierarchy pinned", {2000, 60}, {3, 5}, kRows,
       false, {0, 1}, {{1, 1, 2}}, "partitioned_dense"},
      {"sibling: first grouped hierarchy pinned", {60, 2000}, {5, 3}, kRows,
       false, {1, 0}, {{0, 1, 2}}, "partitioned_dense"},
      {"three dims, predicate off the group-by", {150, 70, 40}, {4, 3, 5},
       kRows, false, {0, -1, 0}, {{1, 1, 0}}, "partitioned_dense"},
      {"single morsel", {100, 120}, {3, 4}, kMorselRows - 5, false, {0, 0},
       {}, "fused_dense"},
  };
  const std::vector<std::string> measures = {"s", "a", "lo", "hi", "n"};
  const int best = static_cast<int>(DetectCpuSimdLevel());
  uint64_t seed = 0;
  for (const Case& c : cases) {
    RefStar star = BuildRefStar(++seed, c.fine, c.coarse, c.rows,
                                c.integer_values);
    std::vector<std::string> by;
    for (size_t d = 0; d < c.levels.size(); ++d) {
      if (c.levels[d] < 0) continue;
      by.push_back(star.schema->hierarchy(d).level_name(c.levels[d]));
    }
    std::vector<Predicate> preds;
    for (const Pin& pin : c.pins) {
      const Hierarchy& hier = star.schema->hierarchy(pin.dim);
      preds.push_back({pin.dim, pin.level, PredicateOp::kEquals,
                       {hier.MemberName(pin.level, pin.member)}});
    }
    const CubeQuery query =
        *CubeQuery::Make(*star.schema, "R", by, preds, measures);
    const auto want = NaiveBits(star, c.levels, c.pins);
    ASSERT_GT(want.size(), 0u) << c.name;
    for (int level = 0; level <= best; ++level) {
      for (int threads : {1, 2, 3, 4}) {
        ForceSimdLevelForTest(level);
        StarQueryEngine engine(star.db.get(), /*use_views=*/false, threads);
        TraceContext trace;
        Result<Cube> cube = [&] {
          TraceContext::Scope scope(&trace);
          return engine.Execute(query);
        }();
        ASSERT_TRUE(cube.ok()) << cube.status().ToString();
        CellBits got;
        for (int64_t r = 0; r < cube->NumRows(); ++r) {
          uint64_t coord = 0;
          for (int l = 0; l < cube->level_count(); ++l) {
            coord |= static_cast<uint64_t>(cube->coord_column(l)[r])
                     << (16 * l);
          }
          std::array<double, 5> values;
          for (int m = 0; m < 5; ++m) values[m] = cube->measure_column(m)[r];
          got.emplace_back(coord, Bits(values));
        }
        std::sort(got.begin(), got.end());
        const auto diff = std::mismatch(want.begin(), want.end(),
                                        got.begin(), got.end());
        EXPECT_TRUE(diff.first == want.end() && diff.second == got.end())
            << c.name << " tier=" << level << " threads=" << threads
            << ": " << want.size() << " reference cells, " << got.size()
            << " engine cells, first difference at reference cell "
            << (diff.first - want.begin());
        if (!kTracingCompiledIn) continue;
        for (const SpanNode& node : trace.Snapshot()) {
          if (node.name != "engine.scan") continue;
          for (const TraceAttr& attr : node.attrs) {
            if (attr.key == "kernel") {
              EXPECT_EQ(attr.string_value, c.kernel) << c.name;
            }
          }
        }
      }
    }
    ForceSimdLevelForTest(-1);
  }
}

}  // namespace
}  // namespace assess
