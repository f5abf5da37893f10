// The three workloads. Each fills one Report: the end-to-end metrics, the
// per-layer metrics (read only in traced runs), the run record (every
// thread count, pool size and setting the run used), the operation counts
// and the outcome of its correctness checks.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "assess/planner.h"
#include "assess/result_set.h"
#include "cache/cube_cache.h"
#include "client/assess_client.h"
#include "common.h"
#include "server/protocol.h"
#include "ssb/ssb_generator.h"
#include "storage/star_schema.h"

namespace assess {
class TaskPool;
}

namespace perfbench {

struct Report {
  MetricTable end_to_end;
  MetricTable per_layer;
  std::vector<std::pair<std::string, std::string>> record;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;

  void Record(const std::string& key, const std::string& value) {
    record.emplace_back(key, value);
  }
  void Record(const std::string& key, double value);
  /// A failed correctness check: the run reports correct=false.
  void Fail(const std::string& why);
  /// A failed or refused operation: counted against `attempted`.
  void OperationFailed(const std::string& what);
};

/// Builds the SSB database for `seed`, timing generation into
/// ssb.generate_s; aborts the run on a generation error.
std::unique_ptr<assess::StarDatabase> GenerateSsb(double scale_factor,
                                                  uint64_t seed,
                                                  double* generate_s);
/// Builds every cube's derived scan structures (packed FK columns, zone
/// maps) so the first timed scan does not pay for them.
void BuildDerived(const assess::StarDatabase& db);

/// Median of the set-up times, written to setup_s and recorded.
void ReportSetup(const std::vector<double>& setup_s, Report* report);

/// CPU and wall time per operation of a fixed sequence of operations that
/// a workload repeats. The sequence is cut into groups of a fixed number of
/// operations, so a group holds the same work in every repetition. Each
/// group's CPU time is the whole process's (every thread, so background
/// work such as ingest counts); its wall time is the sum of its operations'
/// measured latencies.
class OpGroups {
 public:
  OpGroups(int64_t ops_per_group, size_t groups_per_repetition)
      : ops_per_group_(ops_per_group), groups_(groups_per_repetition) {}
  /// Starts a repetition of the sequence.
  void BeginRepetition();
  /// Called after every operation with its latency. Operations beyond the
  /// sequence's length are not counted.
  void OpDone(double wall_ms);
  size_t repetitions() const { return cpu_ms_per_op_.size(); }
  /// Each group's kRepeatQuantile over the repetitions, averaged over the
  /// groups: the cost of the whole sequence, with no group weighing more
  /// than its share.
  double CpuMsPerOp() const { return MeanOfGroupQuantiles(cpu_ms_per_op_); }
  double WallMsPerOp() const { return MeanOfGroupQuantiles(wall_ms_per_op_); }
  /// Every group's kRepeatQuantile "cpu/wall" ms per operation, in order.
  std::string ToString() const;
  /// Every repetition's mean "cpu/wall" ms per operation, in order.
  std::string RepetitionsToString() const;

 private:
  /// The kRepeatQuantile over the repetitions of a group.
  static double GroupQuantile(const std::vector<std::vector<double>>& reps,
                              size_t group);
  double MeanOfGroupQuantiles(
      const std::vector<std::vector<double>>& reps) const;

  const int64_t ops_per_group_;
  const size_t groups_;
  int64_t ops_ = 0;
  double last_cpu_s_ = 0.0;
  double group_wall_ms_ = 0.0;
  // [repetition][group], ms per operation.
  std::vector<std::vector<double>> cpu_ms_per_op_;
  std::vector<std::vector<double>> wall_ms_per_op_;
};

/// The timed window's summary: cpu_ms_per_op and wall_ms_per_op as
/// measured by the workload, and the wall-clock latency of the whole
/// window: wall.op_p50_ms, wall.op_tail_ms (the workload's tail rule) and
/// wall.ops_per_s (operations per second of summed latency).
void ReportOps(const std::vector<double>& op_ms, double cpu_ms_per_op,
               double wall_ms_per_op, const TailRule& tail, Report* report);

// ---- Per-layer probes shared by the workloads (traced runs). ----

/// One statement under one plan (nullopt: the rule-based plan).
struct PlannedStatement {
  std::string text;
  std::optional<assess::PlanKind> plan;
};

/// Calls ParseAssessStatement and Analyze directly on each statement `reps`
/// times; sets assess.parse_us and assess.analyze_us (medians).
void ProbeFrontEnd(const assess::StarDatabase& db,
                   const std::vector<std::string>& statements, int reps,
                   SpanLog* spans, Report* report);

/// Runs every get PlannedGetSubplans issues for each statement once on a
/// cache-off, view-less engine with the program's span tree installed, and
/// sets the storage.* and pool.drain_ms / pool.busy_share metrics.
void ProbeStorage(const assess::StarDatabase& db,
                  const std::vector<PlannedStatement>& statements,
                  const std::shared_ptr<assess::TaskPool>& pool, int threads,
                  SpanLog* spans, Report* report);

/// Wire costs of results: encoded size, encode and decode time.
struct WireSamples {
  std::vector<double> kb, encode_us, decode_us;
  /// Encodes and decodes `result`; a round trip that changes the contract
  /// columns fails the run.
  void Probe(const assess::AssessResult& result, Report* report);
  void Publish(Report* report) const;
};

/// Per-layer server, cache and MQO counters from deltas over the window.
void ReportServerDelta(const assess::ServerStats& before,
                       const assess::ServerStats& after, Report* report);
void ReportCacheDelta(const assess::CacheStats& before,
                      const assess::CacheStats& after, Report* report);
/// Median of many Ping() round trips, in microseconds.
double PingMedianUs(assess::AssessClient* client, int pings, Report* report);

void RunPaper(const Args& args, SpanLog* spans, Report* report);
void RunSession(const Args& args, SpanLog* spans, Report* report);
void RunDashboard(const Args& args, SpanLog* spans, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
