// paper_ssb100: the paper's Figure 3 at the headline scale. One closed-loop
// caller in process runs the four SsbWorkload() intentions under every
// feasible plan (9 intention x plan pairs per pass) with the result cache
// off and no views, so every get is a real scan. The operation is one pass.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "assess/session.h"
#include "common/task_pool.h"
#include "ssb/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using assess::AssessResult;
using assess::AssessSession;
using assess::PlanKind;

constexpr double kScaleFactor = 2.0;  // 12M lineorders: the paper's SSB100
// Two scan participants, not nproc - 1 = 3: the scans are bound by memory
// bandwidth, which other tenants of the shared host contend for. Over five
// interleaved runs a third participant shortened a pass by ~12% but widened
// the range of the estimate from 9% to 24% of its median; two still show
// lost parallelism (CPU time ~1.6x wall time).
constexpr int kScanThreads = 2;  // EngineOptions::threads
constexpr int kPoolWorkers = 1;  // private pool; the caller is the 2nd
constexpr int kCpus = 2;         // one per scan participant
constexpr int kSetups = 3;
constexpr int kParseReps = 200;

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

struct Pair {
  std::string intention;  // lower case: constant, external, sibling, past
  std::string text;
  PlanKind plan;
  bool rule_plan = false;  // the plan a session's rule-based selection picks
  std::string key() const {
    return intention + "." + Lower(std::string(assess::PlanKindToString(plan)));
  }
};

struct Setup {
  std::unique_ptr<assess::StarDatabase> db;
  std::shared_ptr<assess::TaskPool> pool;
  std::unique_ptr<AssessSession> session;
  std::vector<Pair> pairs;
};

assess::EngineOptions CacheOffOptions(
    const std::shared_ptr<assess::TaskPool>& pool) {
  assess::EngineOptions options;
  options.use_views = false;
  options.use_result_cache = false;
  options.threads = kScanThreads;
  options.pool = pool;
  return options;
}

Setup BuildSetup(const Args& args, Report* report, double* generate_s) {
  Setup setup;
  setup.db = GenerateSsb(kScaleFactor, args.seed, generate_s);
  BuildDerived(*setup.db);
  setup.pool = std::make_shared<assess::TaskPool>(kPoolWorkers);
  setup.session = std::make_unique<AssessSession>(
      setup.db.get(), CacheOffOptions(setup.pool));
  for (const assess::WorkloadStatement& stmt : assess::SsbWorkload()) {
    auto analyzed = setup.session->Prepare(stmt.text);
    if (!analyzed.ok()) {
      report->Fail(stmt.name + " does not analyze: " +
                   analyzed.status().ToString());
      continue;
    }
    const PlanKind best = assess::BestPlan(*analyzed);
    for (PlanKind plan : assess::FeasiblePlans(*analyzed)) {
      setup.pairs.push_back({Lower(stmt.name), stmt.text, plan, plan == best});
    }
  }
  if (setup.pairs.size() != 9) {
    report->Fail("expected 9 intention x plan pairs, found " +
                 std::to_string(setup.pairs.size()));
  }
  // Warm-up: the cheapest pair once (pool threads, first-touch paths).
  for (const Pair& pair : setup.pairs) {
    if (pair.key() == "past.pop") {
      auto warm = setup.session->Query(pair.text, pair.plan);
      if (!warm.ok()) report->OperationFailed("warm-up: " + warm.status().ToString());
    }
  }
  return setup;
}

}  // namespace

void RunPaper(const Args& args, SpanLog* spans, Report* report) {
  report->Record("cpus", PinToCpus(kCpus));
  report->Record("scale_factor", kScaleFactor);
  report->Record("engine_threads", kScanThreads);
  report->Record("pool_workers", kPoolWorkers);
  report->Record("client_threads", 1.0);
  report->Record("result_cache", "off");
  report->Record("views", "off");
  report->Record("op", "one pass over all 9 intention x plan pairs");

  // Set-up, repeated; the last one is kept for the timed window.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = Setup{};  // frees the previous database before generating anew
    const Clock::time_point start = Clock::now();
    double gen = 0.0;
    setup = BuildSetup(args, report, &gen);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    generate_s.push_back(gen);
  }
  ReportSetup(setup_s, report);
  report->per_layer.Set("ssb.generate_s", Median(generate_s));
  if (!report->correct) return;

  const assess::TaskPoolStats pool_before = setup.pool->stats();
  std::map<std::string, std::vector<double>> pair_ms;
  std::map<std::string, uint64_t> digests;
  std::map<std::string, std::vector<double>> pass_steps;  // per pass sums
  std::vector<double> pass_ms;
  uint64_t op = 0;

  std::map<std::string, std::vector<double>> pair_cpu_ms;
  const Clock::time_point window_start = Clock::now();
  while (pass_ms.empty() ||
         SecondsBetween(window_start, Clock::now()) < args.seconds) {
    const bool first_pass = pass_ms.empty();
    BenchSpan pass_span(spans, "pass", SpanLog::kNone, ++op);
    double total_ms = 0.0;
    assess::StepTimings steps;
    std::map<std::string, AssessResult> first_results;  // this intention's
    for (const Pair& pair : setup.pairs) {
      BenchSpan span(spans, ("query " + pair.key()).c_str(), pass_span.id(),
                     op);
      assess::TraceContext trace;
      const Clock::time_point trace_epoch = Clock::now();
      std::unique_ptr<assess::TraceContext::Scope> scope;
      if (args.trace) scope = std::make_unique<assess::TraceContext::Scope>(&trace);
      ++report->attempted;
      const double cpu_start = ProcessCpuSeconds();
      const Clock::time_point start = Clock::now();
      auto result = setup.session->Query(pair.text, pair.plan);
      const double ms = MsSince(start);
      pair_cpu_ms[pair.key()].push_back((ProcessCpuSeconds() - cpu_start) * 1e3);
      scope.reset();
      if (!result.ok()) {
        report->OperationFailed(pair.key() + ": " +
                                result.status().ToString());
        continue;
      }
      if (args.trace) spans->AddProgramTrace(trace, trace_epoch, span.id(), op);
      total_ms += ms;
      pair_ms[pair.key()].push_back(ms);
      const assess::StepTimings& t = result->timings;
      steps.get_c += t.get_c + t.get_b + t.get_cb;
      steps.transform += t.transform;
      steps.join += t.join;
      steps.compare += t.compare;
      steps.label += t.label;

      // Correctness: every repeat is bit-identical to the first execution,
      // and every plan of one intention agrees with its first plan.
      const uint64_t digest = DigestResult(*result);
      auto [it, inserted] = digests.emplace(pair.key(), digest);
      if (!inserted && it->second != digest) {
        report->Fail(pair.key() + " returned a different digest on a repeat");
      }
      if (first_pass) {
        auto base = first_results.find(pair.intention);
        if (base == first_results.end()) {
          first_results.emplace(pair.intention, std::move(*result));
        } else {
          const std::string diff = CompareResults(base->second, *result);
          if (!diff.empty()) {
            report->Fail(pair.key() + " disagrees with another plan: " + diff);
          }
        }
      }
    }
    pass_ms.push_back(total_ms);
    pass_steps["get"].push_back(steps.get_c * 1e3);
    pass_steps["transform"].push_back(steps.transform * 1e3);
    pass_steps["join"].push_back(steps.join * 1e3);
    pass_steps["compare"].push_back(steps.compare * 1e3);
    pass_steps["label"].push_back(steps.label * 1e3);
  }
  const double window_s = SecondsBetween(window_start, Clock::now());
  const assess::TaskPoolStats pool_after = setup.pool->stats();
  // CPU and wall time per pass: each pair's kRepeatQuantile over the
  // passes, summed. Every repeat of a pair does the same work (no cache, no
  // views).
  auto sum_of_quantiles =
      [](const std::map<std::string, std::vector<double>>& ms) {
        double sum = 0.0;
        for (const auto& [key, values] : ms) {
          sum += Quantile(values, kRepeatQuantile);
        }
        return sum;
      };
  ReportOps(pass_ms, sum_of_quantiles(pair_cpu_ms), sum_of_quantiles(pair_ms),
            TailRule{}, report);
  report->end_to_end.Set("rss_mb", PeakRssMb());
  report->Record("window_s", window_s);

  if (!args.trace) return;

  // ---- Per-layer metrics (traced run only). ----
  MetricTable& layer = report->per_layer;
  for (const Pair& pair : setup.pairs) {
    const double median = Median(pair_ms[pair.key()]);
    layer.Set("assess.plan." + pair.key() + "_ms", median);
    if (pair.rule_plan) {
      layer.Set("assess.intention." + pair.intention + "_ms", median);
    }
  }
  layer.Set("assess.get_ms", Median(pass_steps["get"]));
  layer.Set("assess.transform_ms", Median(pass_steps["transform"]));
  layer.Set("assess.join_ms", Median(pass_steps["join"]));
  layer.Set("assess.compare_ms", Median(pass_steps["compare"]));
  layer.Set("assess.label_ms", Median(pass_steps["label"]));
  layer.Set("pool.morsels_run",
            static_cast<double>(pool_after.morsels_run - pool_before.morsels_run) /
                static_cast<double>(pass_ms.size()));

  std::vector<std::string> texts;
  std::vector<PlannedStatement> planned;
  for (const Pair& pair : setup.pairs) {
    if (pair.rule_plan) texts.push_back(pair.text);
    planned.push_back({pair.text, pair.plan});
  }
  ProbeFrontEnd(*setup.db, texts, kParseReps, spans, report);
  ProbeStorage(*setup.db, planned, setup.pool, kScanThreads, spans, report);
  // Wire: the result an assessd client would receive for each intention.
  WireSamples wire;
  for (const Pair& pair : setup.pairs) {
    if (!pair.rule_plan) continue;
    auto result = setup.session->Query(pair.text, pair.plan);
    if (result.ok()) wire.Probe(*result, report);
  }
  wire.Publish(report);
}

}  // namespace perfbench
