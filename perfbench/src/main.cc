// perfbench_driver: runs one workload of the end-to-end benchmark in this
// process and prints, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics; traced runs (--trace 1) report the per-layer metrics
// and write the span log as Chrome trace_event JSON.
//
//   perfbench_driver --workload paper_ssb100|session_cache|dashboard_ingest
//                    --seed N --seconds S --trace 0|1
//                    --end-to-end LIST --per-layer LIST
//                    [--out-dir DIR] [--source-id ID]
//
// Each LIST is "name=unit,name=unit,...": the metrics the run prints, in
// order (run.py passes BENCHMARK.json's end_to_end and per_layer lists).

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "common/simd.h"
#include "workloads.h"

namespace {

using perfbench::Args;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "paper_ssb100|session_cache|dashboard_ingest --seed N "
               "--seconds S --trace 0|1 --end-to-end LIST --per-layer LIST "
               "[--out-dir DIR] [--source-id ID]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--source-id") {
      args->source_id = value;
    } else if (key == "--end-to-end") {
      args->end_to_end = value;
    } else if (key == "--per-layer") {
      args->per_layer = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         !args->end_to_end.empty() && !args->per_layer.empty();
}

// Untraced medians are kept per workload and seed so the traced run of the
// same seed can print its tracing overhead against them.
std::string UntracedPath(const Args& args) {
  return args.out_dir + "/untraced_" + args.workload + "_" +
         std::to_string(args.seed) + ".txt";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  void (*run)(const Args&, SpanLog*, Report*) = nullptr;
  if (args.workload == "paper_ssb100") run = RunPaper;
  if (args.workload == "session_cache") run = RunSession;
  if (args.workload == "dashboard_ingest") run = RunDashboard;
  if (run == nullptr) return Usage();
  mkdir(args.out_dir.c_str(), 0755);

  const double calib_before = CalibrationMs();
  const CpuTimes cpu_before = ReadCpuTimes();
  SpanLog spans(args.trace);
  Report report;
  report.end_to_end = MetricTable(args.end_to_end);
  report.per_layer = MetricTable(args.per_layer);
  run(args, &spans, &report);
  for (const std::string& name : report.end_to_end.Unset()) {
    report.Fail("end-to-end metric " + name + " was not measured");
  }
  const CpuTimes cpu_after = ReadCpuTimes();
  const double calib_after = CalibrationMs();
  const double steal = StealPercent(cpu_before, cpu_after);

  // The run record: host, build and every setting the workload used.
  std::string record = "{\"workload\": " + JsonString(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + std::to_string(args.seconds) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"source_id\": " + JsonString(args.source_id) +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"simd\": " +
                       JsonString(assess::SimdLevelName(
                           assess::ActiveSimdLevel())) +
                       ", \"tracing_compiled_in\": " +
                       (assess::kTracingCompiledIn ? "true" : "false");
  char host[160];
  std::snprintf(host, sizeof(host),
                ", \"host_steal_pct\": %.3f, \"host_calib_ms\": [%.2f, %.2f]",
                steal, calib_before, calib_after);
  record += host;
  for (const auto& [key, value] : report.record) {
    record += ", " + JsonString(key) + ": " + JsonString(value);
  }
  record += "}";
  std::printf("record %s\n", record.c_str());
  for (const std::string& error : report.errors) {
    std::printf("error %s\n", error.c_str());
  }

  const double cpu_per_op = report.end_to_end.Get("cpu_ms_per_op");
  const double wall_per_op = report.end_to_end.Get("wall_ms_per_op");
  std::printf("wall op_p50_ms %.4f op_tail_ms %.4f ops_per_s %.4f\n",
              report.per_layer.Get("wall.op_p50_ms"),
              report.per_layer.Get("wall.op_tail_ms"),
              report.per_layer.Get("wall.ops_per_s"));
  if (args.trace) {
    report.per_layer.Set("host.steal_pct", steal);
    report.per_layer.Set("host.calib_ms", 0.5 * (calib_before + calib_after));
    const std::string trace_path = args.out_dir + "/trace_" + args.workload +
                                   "_" + std::to_string(args.seed) + ".json";
    if (spans.WriteChromeTrace(trace_path)) {
      std::printf("trace %s (%zu spans)\n", trace_path.c_str(), spans.size());
    } else {
      report.Fail("cannot write " + trace_path);
    }
    std::ifstream untraced(UntracedPath(args));
    double base_cpu = 0.0;
    double base_wall = 0.0;
    if (untraced >> base_cpu >> base_wall && base_cpu > 0.0 &&
        base_wall > 0.0) {
      std::printf(
          "tracing overhead: cpu_ms_per_op %.4f traced vs %.4f untraced "
          "(%+.1f%%), wall_ms_per_op %.4f vs %.4f (%+.1f%%)\n",
          cpu_per_op, base_cpu, 100.0 * (cpu_per_op / base_cpu - 1.0),
          wall_per_op, base_wall, 100.0 * (wall_per_op / base_wall - 1.0));
    } else {
      std::printf("tracing overhead: no untraced run of this seed yet\n");
    }
  } else {
    std::ofstream(UntracedPath(args)) << cpu_per_op << " " << wall_per_op
                                      << "\n";
  }

  const MetricTable& metrics = args.trace ? report.per_layer
                                          : report.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              metrics.ToJson().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
