// Shared pieces of the end-to-end benchmark: clocks and order statistics,
// the metric tables every run prints, the benchmark's own span log, host
// diagnostics, and result digests / comparisons used by the correctness
// checks. Everything here talks to the program only through its public
// headers.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "assess/result_set.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double MsSince(Clock::time_point from) {
  return SecondsBetween(from, Clock::now()) * 1e3;
}

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string source_id = "unknown";
  std::string end_to_end;  // metric list, "name=unit,..."
  std::string per_layer;   // metric list, "name=unit,..."
};

double Median(std::vector<double> values);
/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
/// The quantile over the repeats of one fixed piece of work that the gated
/// cpu_ms_per_op and wall_ms_per_op are built from. Other tenants of the
/// shared host slow system calls, caches and memory by 30-50% in periods
/// that last seconds to a minute and cover a share of a run that changes
/// from run to run. A median over the repeats moves with that share; a low
/// quantile is the cost outside those periods whenever a tenth of the
/// repeats ran outside them (session_cache over five seeds: IQR 0.30 of the
/// median for the median, 0.08 for this quantile). Only contention adds
/// time to a repeat, and a slowdown of the program itself moves every
/// repeat, this one too.
constexpr double kRepeatQuantile = 0.1;

/// The tail percentile a workload reports: a fixed quantile, or (q <= 0)
/// the slowest sample when a run holds too few operations for one.
struct TailRule {
  double q = 0.0;
  const char* name = "max";
};
struct TailValue {
  double value = 0.0;
  int64_t beyond = 0;  // samples strictly beyond the reported rank
};
TailValue Tail(const std::vector<double>& values, const TailRule& rule);

/// A fixed table of metric names and units, parsed from a list
/// "name=unit,name=unit,..." (run.py passes BENCHMARK.json's lists). Every
/// name starts at 0 and a run sets what it measures. Setting an unknown
/// name is a programming error and aborts, so the printed set always equals
/// the list.
class MetricTable {
 public:
  MetricTable() = default;
  /// Aborts on a malformed list.
  explicit MetricTable(const std::string& list);

  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  /// The names no Set call has reached, in list order.
  std::vector<std::string> Unset() const;
  std::string ToJson() const;

 private:
  struct Entry {
    std::string unit;
    double value = 0.0;
    bool set = false;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

/// The spans the benchmark records around its own calls into the program
/// (traced runs only). Kept in memory and written once as Chrome
/// trace_event JSON. Thread-safe.
class SpanLog {
 public:
  static constexpr int64_t kNone = -1;
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens a span; `op` groups every span of one operation (statement,
  /// refresh, batch). Returns its id (kNone when disabled).
  int64_t Begin(const std::string& name, int64_t parent, uint64_t op);
  void End(int64_t id);
  /// Copies a program span tree (recorded under `trace`, whose clock
  /// started at `trace_epoch`) below `parent`.
  void AddProgramTrace(const assess::TraceContext& trace,
                       Clock::time_point trace_epoch, int64_t parent,
                       uint64_t op);
  size_t size() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    int64_t parent = kNone;
    uint64_t op = 0;
    uint32_t thread = 0;
    double start_us = 0.0;
    double end_us = -1.0;
  };
  uint32_t ThreadIndexLocked();

  bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::map<std::string, uint32_t> threads_;
};

/// RAII span in a SpanLog.
class BenchSpan {
 public:
  BenchSpan(SpanLog* log, const char* name, int64_t parent, uint64_t op)
      : log_(log), id_(log->Begin(name, parent, op)) {}
  ~BenchSpan() { log_->End(id_); }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

/// Aggregates read off a program span tree.
struct TraceFacts {
  int64_t hash_scans = 0;
  int64_t dense_scans = 0;
  int64_t rows_visited = 0;
  int64_t morsels_scanned = 0;
  int64_t morsels_skipped = 0;
  double scan_ms = 0.0;        // engine.scan wall time
  double drain_ms = 0.0;       // pool.drain time summed over participants
  double merge_ms = 0.0;       // engine.scan time no pool.drain covers
};
TraceFacts ReadTraceFacts(const assess::TraceContext& trace);

/// Host diagnostics: CPU steal over an interval and a fixed CPU loop.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();
double StealPercent(const CpuTimes& from, const CpuTimes& to);
/// Times a fixed integer/floating loop; milliseconds.
double CalibrationMs();
/// CPU time of the whole process (user + system, every thread), seconds.
/// Time the hypervisor steals from the guest is not counted.
double ProcessCpuSeconds();
/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();
/// Filesystem type name of the directory (statfs magic), e.g. "ext4".
std::string FilesystemType(const std::string& dir);

/// Restricts the calling thread, and every thread it creates from then on,
/// to the last `count` CPUs the process may run on (to all of them when it
/// may run on fewer). Returns the CPUs chosen, e.g. "3" or "1 2 3".
std::string PinToCpus(int count);
/// Lets the calling thread run on every CPU the process started with again.
void UnpinCpus();

/// Bit-exact digest of a result's cube (coordinates, measure bits, labels).
uint64_t DigestResult(const assess::AssessResult& result);
/// plan_equivalence_test's rule: same cells, every contract measure equal
/// to relative 1e-9 (NaN matching NaN), same labels. Returns "" when equal,
/// otherwise a one-line description of the first difference.
std::string CompareResults(const assess::AssessResult& a,
                           const assess::AssessResult& b);

/// Minimal JSON string escaping.
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
