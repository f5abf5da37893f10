// Per-layer probes: direct calls into one module's public API, timed and
// counted from outside, used by the traced run of every workload.

#include <shared_mutex>

#include "assess/analyzer.h"
#include "assess/parser.h"
#include "assess/subplans.h"
#include "assess/wire_format.h"
#include "common/task_pool.h"
#include "functions/function_registry.h"
#include "labeling/label_function.h"
#include "storage/star_query_engine.h"
#include "workloads.h"

namespace perfbench {

void ProbeFrontEnd(const assess::StarDatabase& db,
                   const std::vector<std::string>& statements, int reps,
                   SpanLog* spans, Report* report) {
  const assess::FunctionRegistry functions =
      assess::FunctionRegistry::Default();
  const assess::LabelingRegistry labelings =
      assess::LabelingRegistry::Default();
  std::shared_lock<std::shared_mutex> lock(db.schema_mutex());
  std::vector<double> parse_us;
  std::vector<double> analyze_us;
  for (const std::string& text : statements) {
    BenchSpan span(spans, "front_end", SpanLog::kNone, 0);
    for (int rep = 0; rep < reps; ++rep) {
      Clock::time_point start = Clock::now();
      auto parsed = assess::ParseAssessStatement(text);
      parse_us.push_back(MsSince(start) * 1e3);
      if (!parsed.ok()) {
        report->Fail("does not parse: " + text);
        return;
      }
      start = Clock::now();
      auto analyzed = assess::Analyze(*parsed, db, functions, labelings);
      analyze_us.push_back(MsSince(start) * 1e3);
      if (!analyzed.ok()) {
        report->Fail("does not analyze: " + text);
        return;
      }
    }
  }
  report->per_layer.Set("assess.parse_us", Median(parse_us));
  report->per_layer.Set("assess.analyze_us", Median(analyze_us));
}

void ProbeStorage(const assess::StarDatabase& db,
                  const std::vector<PlannedStatement>& statements,
                  const std::shared_ptr<assess::TaskPool>& pool, int threads,
                  SpanLog* spans, Report* report) {
  assess::EngineOptions options;
  options.use_views = false;
  options.use_result_cache = false;
  options.threads = threads;
  options.pool = pool;
  assess::StarQueryEngine engine(&db, options);
  const assess::FunctionRegistry functions =
      assess::FunctionRegistry::Default();
  const assess::LabelingRegistry labelings =
      assess::LabelingRegistry::Default();

  std::vector<double> get_ms;
  double get_s = 0.0;
  TraceFacts total;
  for (const PlannedStatement& stmt : statements) {
    std::shared_lock<std::shared_mutex> lock(db.schema_mutex());
    auto parsed = assess::ParseAssessStatement(stmt.text);
    if (!parsed.ok()) continue;
    auto analyzed = assess::Analyze(*parsed, db, functions, labelings);
    if (!analyzed.ok()) continue;
    const assess::PlanKind plan =
        stmt.plan.value_or(assess::BestPlan(*analyzed));
    auto gets = assess::PlannedGetSubplans(*analyzed, plan);
    if (!gets.ok()) {
      report->Fail("no planned gets: " + gets.status().ToString());
      continue;
    }
    for (const assess::CubeQuery& query : *gets) {
      BenchSpan span(spans, "storage.get", SpanLog::kNone, 0);
      assess::TraceContext trace;
      const Clock::time_point trace_epoch = Clock::now();
      double ms = 0.0;
      {
        assess::TraceContext::Scope scope(&trace);
        const Clock::time_point start = Clock::now();
        auto cube = engine.Execute(query);
        ms = MsSince(start);
        if (!cube.ok()) {
          report->OperationFailed("storage get: " + cube.status().ToString());
          continue;
        }
      }
      spans->AddProgramTrace(trace, trace_epoch, span.id(), 0);
      get_ms.push_back(ms);
      get_s += ms / 1e3;
      const TraceFacts facts = ReadTraceFacts(trace);
      total.hash_scans += facts.hash_scans;
      total.dense_scans += facts.dense_scans;
      total.rows_visited += facts.rows_visited;
      total.morsels_scanned += facts.morsels_scanned;
      total.morsels_skipped += facts.morsels_skipped;
      total.scan_ms += facts.scan_ms;
      total.drain_ms += facts.drain_ms;
      total.merge_ms += facts.merge_ms;
    }
  }
  MetricTable& layer = report->per_layer;
  layer.Set("storage.get_ms", Median(get_ms));
  layer.Set("storage.rows_per_s",
            get_s > 0.0 ? static_cast<double>(total.rows_visited) / get_s
                        : 0.0);
  layer.Set("storage.morsels_scanned",
            static_cast<double>(total.morsels_scanned));
  layer.Set("storage.morsels_skipped",
            static_cast<double>(total.morsels_skipped));
  layer.Set("storage.hash_gets", static_cast<double>(total.hash_scans));
  layer.Set("storage.dense_gets", static_cast<double>(total.dense_scans));
  layer.Set("storage.scan_merge_ms", total.merge_ms);
  layer.Set("pool.drain_ms", total.drain_ms);
  layer.Set("pool.busy_share",
            total.scan_ms > 0.0 ? total.drain_ms / (total.scan_ms * threads)
                                : 0.0);
}

void WireSamples::Probe(const assess::AssessResult& result, Report* report) {
  Clock::time_point start = Clock::now();
  const std::string bytes = assess::SerializeAssessResult(result);
  encode_us.push_back(MsSince(start) * 1e3);
  start = Clock::now();
  auto decoded = assess::DeserializeAssessResult(bytes);
  decode_us.push_back(MsSince(start) * 1e3);
  kb.push_back(static_cast<double>(bytes.size()) / 1024.0);
  if (!decoded.ok()) {
    report->Fail("wire decode failed: " + decoded.status().ToString());
  } else if (const std::string diff = CompareResults(result, *decoded);
             !diff.empty()) {
    report->Fail("wire round trip changed the result: " + diff);
  }
}

void WireSamples::Publish(Report* report) const {
  report->per_layer.Set("wire.result_kb", Median(kb));
  report->per_layer.Set("wire.encode_us", Median(encode_us));
  report->per_layer.Set("wire.decode_us", Median(decode_us));
}

void ReportServerDelta(const assess::ServerStats& before,
                       const assess::ServerStats& after, Report* report) {
  MetricTable& layer = report->per_layer;
  layer.Set("server.p50_ms", after.p50_ms);
  layer.Set("server.rejected", static_cast<double>(after.rejected_overload -
                                                   before.rejected_overload));
  layer.Set("server.timeouts",
            static_cast<double>(after.timeouts - before.timeouts));
  layer.Set("server.errors", static_cast<double>(after.error_responses -
                                                 before.error_responses));
  const double batches =
      static_cast<double>(after.mqo_batches - before.mqo_batches);
  layer.Set("mqo.queries_per_batch",
            batches > 0.0 ? static_cast<double>(after.mqo_queries_batched -
                                                before.mqo_queries_batched) /
                                batches
                          : 0.0);
  layer.Set("mqo.shared_scans", static_cast<double>(after.mqo_shared_scans -
                                                    before.mqo_shared_scans));
  layer.Set("mqo.piggybacked",
            static_cast<double>(after.mqo_queries_piggybacked -
                                before.mqo_queries_piggybacked));
}

void ReportCacheDelta(const assess::CacheStats& before,
                      const assess::CacheStats& after, Report* report) {
  MetricTable& layer = report->per_layer;
  const double lookups = static_cast<double>(after.lookups - before.lookups);
  const double hits = static_cast<double>(after.hits() - before.hits());
  layer.Set("cache.hit_share", lookups > 0.0 ? hits / lookups : 0.0);
  layer.Set("cache.exact_hits",
            static_cast<double>(after.exact_hits - before.exact_hits));
  layer.Set("cache.subsumption_hits",
            static_cast<double>(after.subsumption_hits -
                                before.subsumption_hits));
  layer.Set("cache.misses", static_cast<double>(after.misses - before.misses));
  layer.Set("cache.evictions",
            static_cast<double>(after.evictions - before.evictions));
  layer.Set("cache.epoch_invalidations",
            static_cast<double>(after.epoch_invalidations -
                                before.epoch_invalidations));
  layer.Set("cache.bytes_resident",
            static_cast<double>(after.bytes_resident) / 1024.0);
}

double PingMedianUs(assess::AssessClient* client, int pings, Report* report) {
  std::vector<double> us;
  for (int i = 0; i < pings; ++i) {
    const Clock::time_point start = Clock::now();
    assess::Status status = client->Ping();
    us.push_back(MsSince(start) * 1e3);
    if (!status.ok()) {
      report->OperationFailed("ping: " + status.ToString());
      break;
    }
  }
  return Median(us);
}

}  // namespace perfbench
