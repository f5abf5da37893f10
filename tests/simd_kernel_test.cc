// The vectorized-scan determinism contract: every SIMD tier (scalar /
// SSE4.2 / AVX2), every thread count and every run must produce
// bit-identical cubes — the tier is a pure performance knob. Plus the
// packed-column representation, the vectorized zone-map min/max, tail
// handling at every alignment boundary, and incremental extension of
// derived scan structures after appends.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/task_pool.h"
#include "olap/cube_query.h"
#include "storage/packed_column.h"
#include "storage/scan_kernels.h"
#include "storage/star_query_engine.h"
#include "storage/star_schema.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::CellMap;
using ::assess::testutil::K;

// Coordinate -> raw bit pattern of one measure: tier comparisons must be
// exact to the last bit, not within float tolerance.
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

// A randomly shaped star: 2-3 two-level dimensions of random cardinality,
// one measure per aggregation operator, `rows` facts with skewed foreign
// keys and sign-mixed values. One dimension row per fine member, so fk
// code == fine member id.
struct RandomStar {
  std::unique_ptr<StarDatabase> db;
  std::shared_ptr<CubeSchema> schema;
  std::vector<std::string> fine_levels;
  std::vector<std::string> coarse_levels;
};

RandomStar BuildRandomStar(uint64_t seed, int64_t rows) {
  Rng rng(seed);
  RandomStar star;
  star.schema = std::make_shared<CubeSchema>("R");
  const int num_dims = 2 + static_cast<int>(rng.Uniform(2));
  std::vector<DimensionTable> dims;
  std::vector<int64_t> dim_rows;
  for (int d = 0; d < num_dims; ++d) {
    const std::string tag = std::to_string(d);
    auto hier = std::make_shared<Hierarchy>("D" + tag);
    star.fine_levels.push_back("d" + tag + "_fine");
    star.coarse_levels.push_back("d" + tag + "_coarse");
    hier->AddLevel(star.fine_levels.back());
    hier->AddLevel(star.coarse_levels.back());
    const int fine = 2 + static_cast<int>(rng.Uniform(60));
    const int coarse = 1 + static_cast<int>(rng.Uniform(5));
    for (int m = 0; m < coarse; ++m) {
      hier->AddMember(1, "c" + tag + "_" + std::to_string(m));
    }
    DimensionTable dim("D" + tag, hier);
    for (int m = 0; m < fine; ++m) {
      MemberId f = hier->AddMember(0, "f" + tag + "_" + std::to_string(m));
      MemberId c = static_cast<MemberId>(rng.Uniform(coarse));
      hier->SetParent(0, f, c);
      dim.AddRow({f, c});
    }
    star.schema->AddHierarchy(hier);
    dims.push_back(std::move(dim));
    dim_rows.push_back(fine);
  }
  star.schema->AddMeasure({"s", AggOp::kSum});
  star.schema->AddMeasure({"a", AggOp::kAvg});
  star.schema->AddMeasure({"lo", AggOp::kMin});
  star.schema->AddMeasure({"hi", AggOp::kMax});
  star.schema->AddMeasure({"n", AggOp::kCount});
  FactTable facts("R", num_dims, 5);
  facts.Reserve(rows);
  std::vector<int32_t> fks(num_dims);
  for (int64_t i = 0; i < rows; ++i) {
    for (int d = 0; d < num_dims; ++d) {
      fks[d] = static_cast<int32_t>(
          rng.Skewed(static_cast<uint64_t>(dim_rows[d])));
    }
    double v = rng.NextDouble() * 1000.0 - 500.0;
    facts.AddRow(fks, {v, v, v, v, v});
  }
  star.db = std::make_unique<StarDatabase>();
  EXPECT_TRUE(star.db
                  ->Register("R", std::make_unique<BoundCube>(
                                      star.schema, std::move(dims),
                                      std::move(facts)))
                  .ok());
  return star;
}

class SimdKernelTest : public ::testing::Test {
 protected:
  ~SimdKernelTest() override { ForceSimdLevelForTest(-1); }
};

TEST_F(SimdKernelTest, ResolveSimdLevelParsesTheKnob) {
  const SimdLevel avx2 = SimdLevel::kAVX2;
  const SimdLevel sse42 = SimdLevel::kSSE42;
  const SimdLevel scalar = SimdLevel::kScalar;
  EXPECT_EQ(ResolveSimdLevel(nullptr, avx2), avx2);
  for (const char* off : {"off", "OFF", "scalar", "0", "none"}) {
    EXPECT_EQ(ResolveSimdLevel(off, avx2), scalar) << off;
  }
  EXPECT_EQ(ResolveSimdLevel("sse42", avx2), sse42);
  EXPECT_EQ(ResolveSimdLevel("SSE4.2", avx2), sse42);
  // The knob is a ceiling: asking for a tier the CPU lacks falls back.
  EXPECT_EQ(ResolveSimdLevel("avx2", sse42), sse42);
  EXPECT_EQ(ResolveSimdLevel("sse42", scalar), scalar);
  EXPECT_EQ(ResolveSimdLevel("avx2", avx2), avx2);
  EXPECT_EQ(ResolveSimdLevel("auto", avx2), avx2);
  EXPECT_EQ(ResolveSimdLevel("definitely-not-a-tier", sse42), sse42);
}

TEST_F(SimdKernelTest, PackedColumnPicksNarrowestWidth) {
  struct Case {
    int32_t max_code;
    PackedColumn::Width want;
  };
  for (const Case& c :
       {Case{0, PackedColumn::Width::kU8},
        Case{255, PackedColumn::Width::kU8},
        Case{256, PackedColumn::Width::kU16},
        Case{65535, PackedColumn::Width::kU16},
        Case{65536, PackedColumn::Width::kU32}}) {
    Rng rng(c.max_code);
    std::vector<int32_t> codes;
    for (int i = 0; i < 1000; ++i) {
      codes.push_back(static_cast<int32_t>(
          rng.Uniform(static_cast<uint64_t>(c.max_code) + 1)));
    }
    codes[500] = c.max_code;  // force the boundary to appear
    PackedColumn col = PackedColumn::Pack(codes);
    EXPECT_EQ(col.width(), c.want) << c.max_code;
    EXPECT_EQ(col.size(), static_cast<int64_t>(codes.size()));
    // Cache-line alignment is part of the layout contract.
    EXPECT_EQ(reinterpret_cast<uintptr_t>(col.data()) % kSimdAlign, 0u);
    for (size_t i = 0; i < codes.size(); ++i) {
      ASSERT_EQ(col.CodeAt(static_cast<int64_t>(i)), codes[i]) << i;
    }
  }
  PackedColumn empty = PackedColumn::Pack({});
  EXPECT_EQ(empty.size(), 0);
}

TEST_F(SimdKernelTest, MinMaxAgreesAcrossTiersAndLengths) {
  const int best = static_cast<int>(DetectCpuSimdLevel());
  Rng rng(11);
  for (int64_t n : {int64_t{1}, int64_t{2}, int64_t{7}, int64_t{8},
                    int64_t{9}, int64_t{15}, int64_t{16}, int64_t{17},
                    int64_t{100}, int64_t{4097}}) {
    std::vector<int32_t> values;
    values.reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      values.push_back(static_cast<int32_t>(rng.Uniform(1000000)) - 500000);
    }
    int32_t want_lo = 0;
    int32_t want_hi = 0;
    MinMaxInt32(SimdLevel::kScalar, values.data(), n, &want_lo, &want_hi);
    for (int level = 0; level <= best; ++level) {
      int32_t lo = 0;
      int32_t hi = 0;
      MinMaxInt32(static_cast<SimdLevel>(level), values.data(), n, &lo, &hi);
      EXPECT_EQ(lo, want_lo) << "level=" << level << " n=" << n;
      EXPECT_EQ(hi, want_hi) << "level=" << level << " n=" << n;
    }
  }
}

// The core property: random cubes, random group-bys, random predicates,
// every aggregation operator — scalar and every compiled-in vector tier,
// at 1, 2, 3 and 4 threads (3: a partition count that is not a power of
// two), must agree on every output bit.
TEST_F(SimdKernelTest, BitIdenticalAcrossTiersAndThreads) {
  const int best = static_cast<int>(DetectCpuSimdLevel());
  const std::vector<const char*> measures = {"s", "a", "lo", "hi", "n"};
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    // Spans multiple morsels so the parallel path and the merge engage.
    RandomStar star = BuildRandomStar(seed, /*rows=*/3 * kMorselRows + 777);
    Rng rng(seed * 97);

    // A handful of random queries per star: random subset of levels to
    // group by, random predicates (possibly none, possibly on a grouped
    // hierarchy, possibly on the coarse level).
    for (int q = 0; q < 4; ++q) {
      std::vector<std::string> by;
      for (size_t d = 0; d < star.fine_levels.size(); ++d) {
        switch (rng.Uniform(3)) {
          case 0:
            by.push_back(star.fine_levels[d]);
            break;
          case 1:
            by.push_back(star.coarse_levels[d]);
            break;
          default:
            break;  // not grouped
        }
      }
      std::vector<Predicate> preds;
      for (size_t d = 0; d < star.fine_levels.size(); ++d) {
        if (rng.Uniform(2) == 0) continue;
        const Hierarchy& hier =
            *star.schema->hierarchy_ptr(static_cast<int>(d));
        int level = static_cast<int>(rng.Uniform(2));
        int32_t card = hier.LevelCardinality(level);
        Predicate p;
        p.hierarchy = static_cast<int>(d);
        p.level = level;
        p.op = PredicateOp::kIn;
        int picks = 1 + static_cast<int>(rng.Uniform(3));
        for (int i = 0; i < picks; ++i) {
          p.members.push_back(hier.MemberName(
              level, static_cast<MemberId>(rng.Uniform(card))));
        }
        preds.push_back(std::move(p));
      }
      auto query_or = CubeQuery::Make(*star.schema, "R", by, preds,
                                      {"s", "a", "lo", "hi", "n"});
      ASSERT_TRUE(query_or.ok()) << query_or.status().ToString();
      const CubeQuery& query = *query_or;

      ForceSimdLevelForTest(0);
      StarQueryEngine reference(star.db.get(), /*use_views=*/false, 1);
      Cube expected = *reference.Execute(query);
      std::vector<std::map<std::vector<std::string>, uint64_t>> want;
      for (const char* m : measures) want.push_back(BitMap(expected, m));

      for (int level = 0; level <= best; ++level) {
        for (int threads : {1, 2, 3, 4}) {
          ForceSimdLevelForTest(level);
          StarQueryEngine engine(star.db.get(), /*use_views=*/false,
                                 threads);
          Cube actual = *engine.Execute(query);
          for (size_t m = 0; m < measures.size(); ++m) {
            EXPECT_EQ(want[m], BitMap(actual, measures[m]))
                << "seed=" << seed << " q=" << q << " tier=" << level
                << " threads=" << threads << " measure=" << measures[m];
          }
        }
      }
      ForceSimdLevelForTest(-1);
    }
  }
}

// KeyPartition's double-precision block quotient must be exact division
// for every block a key below kLaneReject can have, and Claim must hand
// each key to exactly one partition at a slot inside that partition's
// accumulators.
TEST_F(SimdKernelTest, KeyPartitionDealsEveryKeyToOneOwner) {
  Rng rng(5);
  std::vector<uint32_t> blocks = {0, 1, 7, 8, 9, (1u << 28) - 1,
                                  (1u << 28) - 2};
  for (int i = 0; i < 20000; ++i) {
    blocks.push_back(static_cast<uint32_t>(rng.Uniform(1u << 28)));
  }
  for (uint32_t parts : {1u, 2u, 3u, 4u, 5u, 7u, 64u, 97u, 1000u,
                         kMaxKeyPartitions - 1, kMaxKeyPartitions}) {
    const KeyPartition any(0, parts);
    for (uint32_t b : blocks) {
      ASSERT_EQ(any.BlockQuotient(b), b / parts) << b << " / " << parts;
    }
  }
  const uint32_t key_space = 1000;
  for (uint32_t parts : {1u, 2u, 3u, 5u, 8u}) {
    std::vector<int> owners(key_space, 0);
    for (uint32_t p = 0; p < parts; ++p) {
      const KeyPartition part(p, parts);
      std::vector<int> slot_uses(part.Slots(key_space), 0);
      for (uint32_t key = 0; key < key_space; ++key) {
        uint32_t slot = key;
        if (!part.Claim(&slot)) continue;
        ++owners[key];
        ASSERT_LT(slot, slot_uses.size());
        EXPECT_EQ(++slot_uses[slot], 1) << "slot reused, parts=" << parts;
        EXPECT_EQ((key >> kKeyBlockShift) % parts, p);
      }
    }
    for (uint32_t key = 0; key < key_space; ++key) {
      EXPECT_EQ(owners[key], 1) << "key " << key << " parts=" << parts;
    }
  }
}

// Group-by spaces beyond kDenseKeyLimit take the generic hash kernel in
// every tier; results must still be tier- and thread-independent.
TEST_F(SimdKernelTest, HugeKeySpaceFallsBackDeterministically) {
  const int best = static_cast<int>(DetectCpuSimdLevel());
  auto schema = std::make_shared<CubeSchema>("W");
  std::vector<DimensionTable> dims;
  constexpr int kCard = 70;  // (70+1)^3 > 2^18: generic path
  std::vector<std::string> by;
  for (int d = 0; d < 3; ++d) {
    auto hier = std::make_shared<Hierarchy>("W" + std::to_string(d));
    by.push_back("w" + std::to_string(d));
    hier->AddLevel(by.back());
    DimensionTable dim("W" + std::to_string(d), hier);
    for (int m = 0; m < kCard; ++m) {
      dim.AddRow({hier->AddMember(
          0, "m" + std::to_string(d) + "_" + std::to_string(m))});
    }
    schema->AddHierarchy(hier);
    dims.push_back(std::move(dim));
  }
  schema->AddMeasure({"s", AggOp::kSum});
  FactTable facts("W", 3, 1);
  Rng rng(23);
  const int64_t rows = 2 * kMorselRows + 13;
  facts.Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    facts.AddRow({static_cast<int32_t>(rng.Uniform(kCard)),
                  static_cast<int32_t>(rng.Uniform(kCard)),
                  static_cast<int32_t>(rng.Uniform(kCard))},
                 {rng.NextDouble() * 10.0 - 5.0});
  }
  StarDatabase db;
  ASSERT_TRUE(db.Register("W", std::make_unique<BoundCube>(
                                   schema, std::move(dims),
                                   std::move(facts)))
                  .ok());
  CubeQuery q = *CubeQuery::Make(*schema, "W", by, {}, {"s"});
  ForceSimdLevelForTest(0);
  StarQueryEngine reference(&db, false, 1);
  auto want = BitMap(*reference.Execute(q), "s");
  EXPECT_GT(want.size(), 0u);
  for (int level = 0; level <= best; ++level) {
    for (int threads : {1, 4}) {
      ForceSimdLevelForTest(level);
      StarQueryEngine engine(&db, false, threads);
      EXPECT_EQ(want, BitMap(*engine.Execute(q), "s"))
          << "tier=" << level << " threads=" << threads;
    }
  }
}

// Tail behavior at every alignment boundary the kernels care about: vector
// width, kernel block, bitmap word and morsel edges, including the empty
// table. Integer-valued measures make the expected sums exact under any
// summation order, so the test can also pin absolute values.
TEST_F(SimdKernelTest, TailRowCountsAreExact) {
  const int best = static_cast<int>(DetectCpuSimdLevel());
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  constexpr int kCard = 4;
  DimensionTable dim_proto("K", hier);
  for (int g = 0; g < kCard; ++g) {
    dim_proto.AddRow({hier->AddMember(0, "g" + std::to_string(g))});
  }
  auto schema = std::make_shared<CubeSchema>("T");
  schema->AddHierarchy(hier);
  schema->AddMeasure({"s", AggOp::kSum});
  schema->AddMeasure({"n", AggOp::kCount});

  for (int64_t rows :
       {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{4}, int64_t{5},
        int64_t{63}, int64_t{64}, int64_t{65}, int64_t{4095}, int64_t{4096},
        int64_t{4097}, kMorselRows - 1, kMorselRows, kMorselRows + 1}) {
    FactTable facts("T", 1, 2);
    facts.Reserve(rows);
    double want_sum = 0.0;
    int64_t want_count = 0;
    for (int64_t i = 0; i < rows; ++i) {
      int32_t code = static_cast<int32_t>(i % kCard);
      double v = static_cast<double>(i % 7);
      facts.AddRow({code}, {v, v});
      if (code < 2) {  // the predicate below keeps g0 and g1
        want_sum += v;
        ++want_count;
      }
    }
    StarDatabase db;
    ASSERT_TRUE(db.Register("T",
                            std::make_unique<BoundCube>(
                                schema,
                                std::vector<DimensionTable>{dim_proto},
                                std::move(facts)))
                    .ok());
    CubeQuery q = *CubeQuery::Make(
        *schema, "T", {}, {{0, 0, PredicateOp::kIn, {"g0", "g1"}}},
        {"s", "n"});
    for (int level = 0; level <= best; ++level) {
      ForceSimdLevelForTest(level);
      StarQueryEngine engine(&db, false, 1);
      Cube cube = *engine.Execute(q);
      if (want_count == 0) {
        EXPECT_EQ(cube.NumRows(), 0) << "rows=" << rows;
        continue;
      }
      ASSERT_EQ(cube.NumRows(), 1) << "rows=" << rows << " tier=" << level;
      auto sums = CellMap(cube, "s");
      auto counts = CellMap(cube, "n");
      EXPECT_EQ(sums.begin()->second, want_sum)
          << "rows=" << rows << " tier=" << level;
      EXPECT_EQ(counts.begin()->second, static_cast<double>(want_count))
          << "rows=" << rows << " tier=" << level;
    }
  }
}

// Derived scan structures (packed columns, zone maps) used to fail the
// scan hard when rows were appended after they were built. Appends now
// *extend* them incrementally for the suffix: queries after an append see
// the new rows, the epoch advances, and the packed columns are shared and
// appended in place rather than rebuilt.
TEST_F(SimdKernelTest, AppendExtendsDerivedStructures) {
  auto hier = std::make_shared<Hierarchy>("H");
  hier->AddLevel("k");
  DimensionTable dim("K", hier);
  for (int g = 0; g < 2; ++g) {
    dim.AddRow({hier->AddMember(0, "g" + std::to_string(g))});
  }
  auto schema = std::make_shared<CubeSchema>("T");
  schema->AddHierarchy(hier);
  schema->AddMeasure({"s", AggOp::kSum});
  FactTable facts("T", 1, 1);
  for (int64_t i = 0; i < 100; ++i) {
    facts.AddRow({static_cast<int32_t>(i % 2)}, {1.0});
  }
  // Build the derived views at 100 rows, then keep loading.
  FactSnapshot before = facts.SnapshotWithDerived();
  ASSERT_NE(before.derived, nullptr);
  EXPECT_EQ(before.derived->rows(), 100);
  facts.AddRow({0}, {1.0});
  EXPECT_GT(facts.epoch(), before.epoch);

  // A fresh snapshot extends the previous accelerators instead of failing:
  // the packed column covers the appended row without a width repack. The
  // first extension reallocates (Pack sizes its buffer exactly) but leaves
  // geometric headroom, so the next extension appends in place and shares
  // the buffer with the prior snapshot.
  FactSnapshot after = facts.SnapshotWithDerived();
  EXPECT_EQ(after.derived->rows(), 101);
  EXPECT_EQ(after.derived->repacks, 0u);
  EXPECT_EQ(after.derived->packed.dims[0].CodeAt(100), 0);
  // The old snapshot still reads its own shorter prefix.
  EXPECT_EQ(before.derived->packed.dims[0].size(), 100);
  facts.AddRow({1}, {1.0});
  FactSnapshot third = facts.SnapshotWithDerived();
  EXPECT_EQ(third.derived->rows(), 102);
  EXPECT_EQ(third.derived->repacks, 0u);
  EXPECT_EQ(third.derived->packed.dims[0].data(),
            after.derived->packed.dims[0].data());
  EXPECT_EQ(third.derived->packed.dims[0].CodeAt(101), 1);

  StarDatabase db;
  ASSERT_TRUE(db.Register("T", std::make_unique<BoundCube>(
                                   schema,
                                   std::vector<DimensionTable>{dim},
                                   std::move(facts)))
                  .ok());
  StarQueryEngine engine(&db, false, 1);
  CubeQuery q = *CubeQuery::Make(*schema, "T", {"k"}, {}, {"s"});
  auto result = engine.Execute(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto sums = CellMap(*result, "s");
  EXPECT_EQ(sums.at(K("g0")), 51.0);  // 50 original + 1 appended
  EXPECT_EQ(sums.at(K("g1")), 51.0);  // 50 original + 1 appended
}

}  // namespace
}  // namespace assess
