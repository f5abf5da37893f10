// session_cache: one closed-loop analyst over loopback to an in-process
// AssessServer with the shared result cache on (default 64 MiB budget) and
// MQO off. The statements are a seeded walk over the roll-up lattice that
// starts from the paper's four intentions. It runs in blocks of twenty
// statements over one fresh slice, so every block has the same outcome mix:
//
//   1 miss    (re-slice)           n0 = (c_nation, category)
//   2 exact   (new using/labels)   n0
//   3 subsume (roll up)            n1 = n0 with one hierarchy one level up
//   4 exact   (new using/labels)   n1
//   5 miss    (drill down)         n2 = n0 with one hierarchy one level down
//   6 exact   (new using/labels)   n2
//   7 subsume (roll up)            n3 = n2 with the other hierarchy up
//   8 exact   (new using/labels)   n3
//   9 exact   (repeat of 1)
//  10 exact   (repeat of 5)
//  11 exact   (repeat of 3)
//  12 exact   (repeat of 7)
//  13-16 exact (repeats of 2, 4, 6, 8)
//  17-20 exact (n0 .. n3 with a third using/labels)
//
// That fixes the shares at 16/20 exact, 2/20 subsumption, 2/20 miss: the
// median statement lies inside the hit mode (cumulative 0 .. 0.9), mostly
// among the exact hits (0 .. 0.8), and the tail percentile inside the miss
// mode (0.9 .. 1).
// The four intentions are dealt in a seeded order, four blocks at a time.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <tuple>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "assess/session.h"
#include "assess/wire_format.h"
#include "client/assess_client.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "server/assessd.h"
#include "workloads.h"

namespace perfbench {
namespace {

using assess::AssessResult;

constexpr double kScaleFactor = 0.05;  // 300K lineorders
constexpr int kScanThreads = 1;  // EngineOptions::threads: the caller only
constexpr int kPoolWorkers = 2;
constexpr int kServerWorkers = 1;
// Every thread of the timed part shares one CPU: a statement hands off from
// the client to the server's threads and back, and on a shared virtual host
// waking a thread on another, idle vCPU costs more than the statement.
constexpr int kCpus = 1;
constexpr int kCheckThreads = 3;
constexpr int kPings = 200;
constexpr int kStorageProbeBlocks = 8;
// One repetition is kGroups groups of four blocks (one per intention). The
// run repeats it, each time on a fresh set-up, at least kMinRepetitions
// times and until the repetitions add up to the window. The result cache
// grows with every block and a subsumption lookup visits every entry, so
// the cost of a statement depends on how many came before it.
constexpr int kBlockStatements = 20;
constexpr int kGroupBlocks = 4;
constexpr int kGroups = 50;
constexpr int kMinRepetitions = 3;
// The tail percentile: inside the miss mode (cumulative 0.9 .. 1.0).
constexpr TailRule kTail{0.95, "p95"};

enum Outcome { kExact = 0, kSubsumption = 1, kMiss = 2 };
const char* const kOutcomeNames[] = {"exact", "subsumption", "miss"};

const char* const kCustomer[] = {"c_city", "c_nation", "c_region"};
const char* const kPart[] = {"brand", "category", "mfgr"};
const char* const kLabels[] = {"quartiles", "terciles", "quintiles"};

// The using functions of each intention family: constant, external,
// sibling, past.
const char* const kFunctions[4][3] = {
    {"ratio(quantity, 40)", "difference(quantity, 40)",
     "percentage(quantity, 40)"},
    {"normalizedDifference(revenue, benchmark.plannedRevenue)",
     "ratio(revenue, benchmark.plannedRevenue)",
     "difference(revenue, benchmark.plannedRevenue)"},
    {"difference(quantity, benchmark.quantity)",
     "ratio(quantity, benchmark.quantity)",
     "percentage(quantity, benchmark.quantity)"},
    {"ratio(quantity, benchmark.quantity)",
     "difference(quantity, benchmark.quantity)",
     "percentage(quantity, benchmark.quantity)"},
};

struct Node {
  int customer = 1;  // index into kCustomer
  int part = 1;      // index into kPart
};

struct Planned {
  std::string text;
  Outcome outcome;
};

std::string Quote(const std::string& s) { return "'" + s + "'"; }

std::string StatementText(int family, const std::string& month,
                          const std::string& nation, const std::string& region,
                          const std::string& sibling, Node node, int fn,
                          int labels) {
  const std::string sel =
      "with SSB for month = " + Quote(month) + ", s_nation = " + Quote(nation) +
      ", c_region = " + Quote(region);
  const std::string by =
      std::string(kCustomer[node.customer]) + ", " + kPart[node.part];
  const std::string using_clause =
      std::string(" using ") + kFunctions[family][fn] + " labels " +
      kLabels[labels];
  switch (family) {
    case 0:
      return sel + " by " + by + " assess quantity against 40" + using_clause;
    case 1:
      return sel + " by " + by +
             " assess revenue against BUDGET.plannedRevenue" + using_clause;
    case 2:
      return sel + " by " + by + ", s_nation assess quantity against s_nation = " +
             Quote(sibling) + using_clause;
    default:
      return sel + " by month, " + by + " assess quantity against past 2" +
             using_clause;
  }
}

/// The seeded walk: a fixed pool of never-repeating slices (month x
/// supplier nation x customer region, skipping the first months so Past has
/// a history),
/// dealt to blocks in seeded order.
class Walk {
 public:
  Walk(const assess::StarDatabase& db, uint64_t seed) : rng_(seed) {
    auto cube = db.Find("SSB");
    const assess::CubeSchema& schema = (*cube)->schema();
    months_ = Members(schema, "month");
    nations_ = Members(schema, "s_nation");
    regions_ = Members(schema, "c_region");
    std::sort(months_.begin(), months_.end());
    warmup_month_ = months_[1];
    for (size_t m = 2; m < months_.size(); ++m) {
      for (size_t n = 0; n < nations_.size(); ++n) {
        for (size_t r = 0; r < regions_.size(); ++r) slices_.push_back({m, n, r});
      }
    }
    for (size_t i = slices_.size(); i > 1; --i) {
      std::swap(slices_[i - 1], slices_[rng_.Uniform(i)]);
    }
  }

  /// Statements that warm the server without touching any walk slice.
  std::vector<std::string> Warmup() const {
    std::vector<std::string> out;
    for (int family = 0; family < 3; ++family) {
      out.push_back(StatementText(family, warmup_month_, nations_[0],
                                  regions_[0], nations_[1], Node{}, 0, 0));
    }
    return out;
  }

  std::vector<Planned> NextBlock() {
    if (block_ % 4 == 0) {  // deal the four intentions in seeded order
      for (int i = 0; i < 4; ++i) order_[i] = i;
      for (int i = 3; i > 0; --i) std::swap(order_[i], order_[rng_.Uniform(i + 1)]);
    }
    const int family = order_[block_ % 4];
    ++block_;
    const Slice slice = slices_.at(next_slice_++);
    const std::string& month = months_[slice.month];
    const std::string& nation = nations_[slice.nation];
    const std::string& region = regions_[slice.region];
    const size_t n = slice.nation;
    // The sibling get reads both nations, so its slice is the unordered
    // pair: draw a benchmark nation whose pair this month and region have
    // not had yet.
    size_t other = n;
    while (other == n ||
           !sibling_pairs_
                .insert({slice.month, slice.region, std::min(n, other),
                         std::max(n, other)})
                .second) {
      other = rng_.Uniform(nations_.size());
    }
    const std::string& sibling = nations_[other];
    int fn[3] = {0, 1, 2};
    int lab[3] = {0, 1, 2};
    for (int i = 2; i > 0; --i) {
      std::swap(fn[i], fn[rng_.Uniform(i + 1)]);
      std::swap(lab[i], lab[rng_.Uniform(i + 1)]);
    }
    const bool roll_customer = rng_.Uniform(2) == 0;
    const bool drill_customer = rng_.Uniform(2) == 0;
    const Node n0{1, 1};
    Node n1 = n0;
    (roll_customer ? n1.customer : n1.part) = 2;
    Node n2 = n0;
    (drill_customer ? n2.customer : n2.part) = 0;
    Node n3 = n2;
    (drill_customer ? n3.part : n3.customer) = 2;
    auto text = [&](Node node, int variant) {
      return StatementText(family, month, nation, region, sibling, node,
                           fn[variant],
                           lab[variant]);
    };
    return {
        {text(n0, 0), kMiss},        {text(n0, 1), kExact},
        {text(n1, 0), kSubsumption}, {text(n1, 1), kExact},
        {text(n2, 0), kMiss},        {text(n2, 1), kExact},
        {text(n3, 0), kSubsumption}, {text(n3, 1), kExact},
        {text(n0, 0), kExact},       {text(n2, 0), kExact},
        {text(n1, 0), kExact},       {text(n3, 0), kExact},
        {text(n0, 1), kExact},       {text(n1, 1), kExact},
        {text(n2, 1), kExact},       {text(n3, 1), kExact},
        {text(n0, 2), kExact},       {text(n1, 2), kExact},
        {text(n2, 2), kExact},       {text(n3, 2), kExact},
    };
  }

 private:
  static std::vector<std::string> Members(const assess::CubeSchema& schema,
                                          const char* level) {
    std::vector<std::string> out;
    const int h = *schema.HierarchyOfLevel(level);
    const assess::Hierarchy& hierarchy = schema.hierarchy(h);
    const int l = *hierarchy.LevelIndex(level);
    for (int32_t id = 0; id < hierarchy.LevelCardinality(l); ++id) {
      out.push_back(hierarchy.MemberName(l, id));
    }
    return out;
  }

  assess::Rng rng_;
  std::vector<std::string> months_;
  std::vector<std::string> nations_;
  std::vector<std::string> regions_;
  std::string warmup_month_;
  struct Slice {
    size_t month, nation, region;
  };
  std::vector<Slice> slices_;
  std::set<std::tuple<size_t, size_t, size_t, size_t>> sibling_pairs_;
  size_t next_slice_ = 0;
  int block_ = 0;
  int order_[4] = {0, 1, 2, 3};
};

struct Setup {
  std::unique_ptr<assess::StarDatabase> db;
  std::shared_ptr<assess::TaskPool> pool;
  std::shared_ptr<assess::CubeResultCache> cache;
  std::unique_ptr<assess::AssessServer> server;
  std::unique_ptr<assess::AssessClient> client;

  ~Setup() {
    if (client) client->Close();
    if (server) server->Stop();
  }
};

std::unique_ptr<Setup> BuildSetup(const Args& args, Report* report,
                                  double* generate_s) {
  auto setup = std::make_unique<Setup>();
  setup->db = GenerateSsb(kScaleFactor, args.seed, generate_s);
  BuildDerived(*setup->db);
  setup->pool = std::make_shared<assess::TaskPool>(kPoolWorkers);
  setup->cache = std::make_shared<assess::CubeResultCache>();
  assess::ServerOptions options;
  options.worker_threads = kServerWorkers;
  options.mqo_window_us = 0;
  options.engine.threads = kScanThreads;
  options.engine.pool = setup->pool;
  options.engine.shared_cache = setup->cache;
  options.engine.use_views = false;
  setup->server =
      std::make_unique<assess::AssessServer>(setup->db.get(), options);
  assess::Status started = setup->server->Start();
  if (!started.ok()) {
    report->Fail("server start: " + started.ToString());
    return setup;
  }
  auto client = assess::AssessClient::Connect("127.0.0.1",
                                              setup->server->port());
  if (!client.ok()) {
    report->Fail("connect: " + client.status().ToString());
    return setup;
  }
  setup->client = std::make_unique<assess::AssessClient>(std::move(*client));
  Walk walk(*setup->db, args.seed);
  for (int rep = 0; rep < 2; ++rep) {
    for (const std::string& text : walk.Warmup()) {
      auto warm = setup->client->Query(text);
      if (!warm.ok()) report->OperationFailed("warm-up: " + warm.status().ToString());
    }
  }
  return setup;
}

Outcome Observed(const assess::CacheStats& before,
                 const assess::CacheStats& after) {
  if (after.misses > before.misses) return kMiss;
  if (after.subsumption_hits > before.subsumption_hits) return kSubsumption;
  return kExact;
}

/// The remote answer of every distinct statement, kept in a spill file so
/// the run's memory does not grow with its statement count.
class AnswerLog {
 public:
  explicit AnswerLog(std::string path)
      : path_(std::move(path)), out_(path_, std::ios::binary) {}
  ~AnswerLog() { std::remove(path_.c_str()); }

  void Add(const std::string& text, const AssessResult& result) {
    if (index_.count(text) > 0) return;
    const std::string bytes = assess::SerializeAssessResult(result);
    index_[text] = {offset_, bytes.size()};
    out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    offset_ += bytes.size();
  }

  /// Re-runs every distinct statement on in-process cache-off sessions and
  /// compares each with the remote answer.
  void CheckAgainstLocal(const assess::StarDatabase& db, Report* report) {
    out_.flush();
    std::vector<const Entry*> items;
    for (const auto& item : index_) items.push_back(&item);
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::vector<std::string> messages;
    auto worker = [&] {
      assess::ExecutorOptions options;
      options.use_result_cache = false;
      options.use_views = false;
      options.threads = 1;
      assess::AssessSession local(&db, options);
      std::ifstream in(path_, std::ios::binary);
      std::string bytes;
      for (size_t i = next++; i < items.size(); i = next++) {
        const auto& [text, where] = *items[i];
        bytes.resize(where.second);
        in.seekg(static_cast<std::streamoff>(where.first));
        in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        auto remote = assess::DeserializeAssessResult(bytes);
        auto mine = local.Query(text);
        std::string diff =
            !remote.ok()  ? "spilled answer: " + remote.status().ToString()
            : !mine.ok() ? mine.status().ToString()
                         : CompareResults(*remote, *mine);
        if (!diff.empty()) {
          std::lock_guard<std::mutex> lock(mu);
          if (messages.size() < 3) messages.push_back(text + ": " + diff);
        }
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kCheckThreads; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
    for (const std::string& m : messages) {
      report->Fail("remote answer differs from local cache-off: " + m);
    }
    report->Record("checked_statements", static_cast<double>(items.size()));
  }

 private:
  using Entry = std::pair<const std::string, std::pair<uint64_t, size_t>>;
  std::string path_;
  std::ofstream out_;
  uint64_t offset_ = 0;
  std::map<std::string, std::pair<uint64_t, size_t>> index_;
};

}  // namespace

void RunSession(const Args& args, SpanLog* spans, Report* report) {
  report->Record("cpus", PinToCpus(kCpus));
  report->Record("scale_factor", kScaleFactor);
  report->Record("client_threads", 1.0);
  report->Record("connections", 1.0);
  report->Record("server_worker_threads", kServerWorkers);
  report->Record("engine_threads", kScanThreads);
  report->Record("pool_workers", kPoolWorkers);
  report->Record("result_cache", "on, 64 MiB");
  report->Record("mqo_window_us", 0.0);
  report->Record("check_threads", kCheckThreads);
  report->Record("op", "one statement");

  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::unique_ptr<Setup> setup;
  std::vector<double> latency_ms;
  std::vector<Outcome> observed_of;
  AnswerLog answers(args.out_dir + "/session_answers_" +
                    std::to_string(getpid()) + ".bin");
  std::vector<std::string> probe_texts;  // misses of the first blocks
  std::vector<double> class_ms[3];
  std::vector<double> step_ms[5];
  std::vector<double> non_exec_ms;
  WireSamples wire;
  int64_t mismatched = 0;
  uint64_t op = 0;
  assess::CacheStats cache_before, cache_after;
  assess::ServerStats server_before, server_after;
  assess::TaskPoolStats pool_before, pool_after;

  // Each repetition sets up anew (one setup_s sample) and runs the same
  // walk from an empty cache, so every repetition does the same work.
  OpGroups groups(kGroupBlocks * kBlockStatements, kGroups);
  double window_s = 0.0;
  while (groups.repetitions() < kMinRepetitions || window_s < args.seconds) {
    setup.reset();
    const Clock::time_point setup_start = Clock::now();
    double gen = 0.0;
    setup = BuildSetup(args, report, &gen);
    setup_s.push_back(SecondsBetween(setup_start, Clock::now()));
    generate_s.push_back(gen);
    if (!report->correct) return;

    Walk walk(*setup->db, args.seed);
    const bool first = groups.repetitions() == 0;
    cache_before = setup->cache->stats();
    server_before = setup->server->Snapshot();
    pool_before = setup->pool->stats();
    const Clock::time_point start = Clock::now();
    groups.BeginRepetition();
    for (int block = 0; block < kGroups * kGroupBlocks; ++block) {
      for (const Planned& stmt : walk.NextBlock()) {
        BenchSpan span(spans, "statement", SpanLog::kNone, ++op);
        const assess::CacheStats before = setup->cache->stats();
        ++report->attempted;
        double ms = 0.0;
        assess::Result<AssessResult> result = assess::Status::Internal("unset");
        {
          BenchSpan call(spans, "client.query", span.id(), op);
          const Clock::time_point sent = Clock::now();
          result = setup->client->Query(stmt.text);
          ms = MsSince(sent);
        }
        if (!result.ok()) {
          report->OperationFailed(stmt.text + ": " +
                                  result.status().ToString());
          continue;
        }
        const Outcome observed = Observed(before, setup->cache->stats());
        latency_ms.push_back(ms);
        observed_of.push_back(observed);
        class_ms[observed].push_back(ms);
        if (observed != stmt.outcome) ++mismatched;
        if (args.trace) {
          const assess::StepTimings& t = result->timings;
          step_ms[0].push_back((t.get_c + t.get_b + t.get_cb) * 1e3);
          step_ms[1].push_back(t.transform * 1e3);
          step_ms[2].push_back(t.join * 1e3);
          step_ms[3].push_back(t.compare * 1e3);
          step_ms[4].push_back(t.label * 1e3);
          non_exec_ms.push_back(ms - t.Total() * 1e3);
          BenchSpan wire_span(spans, "wire.probe", span.id(), op);
          wire.Probe(*result, report);
        }
        if (first && stmt.outcome == kMiss && block < kStorageProbeBlocks) {
          probe_texts.push_back(stmt.text);
        }
        answers.Add(stmt.text, *result);
        groups.OpDone(ms);
      }
    }
    window_s += SecondsBetween(start, Clock::now());
    if (first) report->end_to_end.Set("rss_mb", PeakRssMb());
    cache_after = setup->cache->stats();
    server_after = setup->server->Snapshot();
    pool_after = setup->pool->stats();
  }
  ReportSetup(setup_s, report);
  report->per_layer.Set("ssb.generate_s", Median(generate_s));
  ReportOps(latency_ms, groups.CpuMsPerOp(), groups.WallMsPerOp(), kTail,
            report);
  report->Record("repetitions", static_cast<double>(groups.repetitions()));
  report->Record("cpu_wall_ms_per_op_groups", groups.ToString());
  report->Record("cpu_wall_ms_per_op_repetitions",
                 groups.RepetitionsToString());
  report->Record("window_s", window_s);

  // Mode position: shares per outcome class, the cumulative share at each
  // class boundary, and where the reported percentiles fall.
  double shares[3] = {0, 0, 0};
  for (Outcome o : observed_of) shares[o] += 1.0 / observed_of.size();
  const double boundaries[2] = {shares[kExact],
                                shares[kExact] + shares[kSubsumption]};
  char line[256];
  std::snprintf(line, sizeof(line),
                "exact %.4f subsumption %.4f miss %.4f; cumulative %.4f "
                "%.4f 1.0000",
                shares[0], shares[1], shares[2], boundaries[0], boundaries[1]);
  report->Record("outcome_shares", line);
  for (int c = 0; c < 3; ++c) {
    std::snprintf(line, sizeof(line), "p10 %.4f p50 %.4f p90 %.4f n %zu",
                  Quantile(class_ms[c], 0.1), Quantile(class_ms[c], 0.5),
                  Quantile(class_ms[c], 0.9), class_ms[c].size());
    report->Record(std::string(kOutcomeNames[c]) + "_latency_ms", line);
  }
  report->per_layer.Set("session.exact_share", shares[kExact]);
  report->per_layer.Set("session.subsumption_share", shares[kSubsumption]);
  report->per_layer.Set("session.miss_share", shares[kMiss]);
  if (mismatched > 0) {
    report->Fail(std::to_string(mismatched) +
                 " statements had another cache outcome than planned");
  }
  // Where the reported percentiles fall: the sample at p50 must be a hit
  // and the sample at the tail rule a miss, or the percentile would move
  // between the hit and the miss mode with a few statements more or less.
  // Exact and subsumption hits form one mode: the slowest exact hits take
  // as long as the fastest subsumption hits.
  {
    std::vector<std::pair<double, Outcome>> sorted;
    for (size_t i = 0; i < latency_ms.size(); ++i) {
      sorted.push_back({latency_ms[i], observed_of[i]});
    }
    std::sort(sorted.begin(), sorted.end());
    auto check = [&](double q, const std::string& name, bool want_miss) {
      if (sorted.empty()) return;
      const size_t rank = static_cast<size_t>(
          std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
      const Outcome at = sorted[std::min(rank, sorted.size()) - 1].second;
      report->Record(name + "_sample_class", kOutcomeNames[at]);
      if ((at == kMiss) != want_miss) {
        report->Fail("the " + name + " statement's cache outcome is " +
                     kOutcomeNames[at]);
      }
    };
    check(0.5, "p50", /*want_miss=*/false);
    check(kTail.q, kTail.name, /*want_miss=*/true);
  }

  // Correctness: every distinct statement against a local cache-off run.
  UnpinCpus();
  answers.CheckAgainstLocal(*setup->db, report);

  if (!args.trace) return;
  MetricTable& layer = report->per_layer;
  const char* const steps[5] = {"assess.get_ms", "assess.transform_ms",
                                "assess.join_ms", "assess.compare_ms",
                                "assess.label_ms"};
  for (int i = 0; i < 5; ++i) layer.Set(steps[i], Median(step_ms[i]));
  layer.Set("cache.exact_hit_ms", Median(class_ms[kExact]));
  layer.Set("cache.subsumption_ms", Median(class_ms[kSubsumption]));
  ReportCacheDelta(cache_before, cache_after, report);
  ReportServerDelta(server_before, server_after, report);
  layer.Set("pool.morsels_run",
            static_cast<double>(pool_after.morsels_run - pool_before.morsels_run));
  layer.Set("client.non_exec_ms", Median(non_exec_ms));
  layer.Set("client.ping_us",
            PingMedianUs(setup->client.get(), kPings, report));
  wire.Publish(report);
  std::vector<std::string> front;
  std::vector<PlannedStatement> probe;
  for (const std::string& text : probe_texts) {
    front.push_back(text);
    probe.push_back({text, std::nullopt});
  }
  ProbeFrontEnd(*setup->db, front, 20, spans, report);
  ProbeStorage(*setup->db, probe, setup->pool, kScanThreads, spans, report);
}

}  // namespace perfbench
