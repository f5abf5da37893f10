#include <cstdio>
#include <cstdlib>

#include "workloads.h"

namespace perfbench {

void Report::Record(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  record.emplace_back(key, buf);
}

void Report::Fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

void Report::OperationFailed(const std::string& what) {
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
  std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
}

std::unique_ptr<assess::StarDatabase> GenerateSsb(double scale_factor,
                                                  uint64_t seed,
                                                  double* generate_s) {
  assess::SsbConfig config;
  config.scale_factor = scale_factor;
  config.seed = seed;
  config.include_budget = true;
  const Clock::time_point start = Clock::now();
  auto built = assess::BuildSsbDatabase(config);
  *generate_s = SecondsBetween(start, Clock::now());
  if (!built.ok()) {
    std::fprintf(stderr, "perfbench: SSB generation failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(built).value();
}

void BuildDerived(const assess::StarDatabase& db) {
  for (const std::string& name : db.CubeNames()) {
    auto cube = db.Find(name);
    if (cube.ok()) (*cube)->facts().SnapshotWithDerived();
  }
}

void ReportSetup(const std::vector<double>& setup_s, Report* report) {
  report->end_to_end.Set("setup_s", Median(setup_s));
  std::string all;
  for (double s : setup_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", all.empty() ? "" : " ", s);
    all += buf;
  }
  report->Record("setup_runs_s", all);
}

void OpGroups::BeginRepetition() {
  cpu_ms_per_op_.emplace_back();
  wall_ms_per_op_.emplace_back();
  ops_ = 0;
  group_wall_ms_ = 0.0;
  last_cpu_s_ = ProcessCpuSeconds();
}

void OpGroups::OpDone(double wall_ms) {
  if (cpu_ms_per_op_.empty() || cpu_ms_per_op_.back().size() >= groups_) {
    return;
  }
  group_wall_ms_ += wall_ms;
  if (++ops_ % ops_per_group_ != 0) return;
  const double now = ProcessCpuSeconds();
  const double ops = static_cast<double>(ops_per_group_);
  cpu_ms_per_op_.back().push_back((now - last_cpu_s_) * 1e3 / ops);
  wall_ms_per_op_.back().push_back(group_wall_ms_ / ops);
  last_cpu_s_ = now;
  group_wall_ms_ = 0.0;
}

double OpGroups::GroupQuantile(const std::vector<std::vector<double>>& reps,
                               size_t group) {
  std::vector<double> values;
  for (const std::vector<double>& rep : reps) {
    if (group < rep.size()) values.push_back(rep[group]);
  }
  return values.empty() ? -1.0 : Quantile(values, kRepeatQuantile);
}

double OpGroups::MeanOfGroupQuantiles(
    const std::vector<std::vector<double>>& reps) const {
  double sum = 0.0;
  size_t counted = 0;
  for (size_t g = 0; g < groups_; ++g) {
    const double value = GroupQuantile(reps, g);
    if (value < 0.0) continue;
    sum += value;
    ++counted;
  }
  return counted > 0 ? sum / static_cast<double>(counted) : 0.0;
}

std::string OpGroups::ToString() const {
  std::string out;
  for (size_t g = 0; g < groups_; ++g) {
    const double cpu = GroupQuantile(cpu_ms_per_op_, g);
    const double wall = GroupQuantile(wall_ms_per_op_, g);
    if (cpu < 0.0) break;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s%.4g/%.4g", out.empty() ? "" : " ",
                  cpu, wall);
    out += buf;
  }
  return out;
}

std::string OpGroups::RepetitionsToString() const {
  std::string out;
  for (size_t r = 0; r < cpu_ms_per_op_.size(); ++r) {
    const std::vector<double>& cpu = cpu_ms_per_op_[r];
    const std::vector<double>& wall = wall_ms_per_op_[r];
    if (cpu.empty()) continue;
    double cpu_sum = 0.0;
    double wall_sum = 0.0;
    for (size_t g = 0; g < cpu.size(); ++g) {
      cpu_sum += cpu[g];
      wall_sum += wall[g];
    }
    const double n = static_cast<double>(cpu.size());
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s%.4g/%.4g", out.empty() ? "" : " ",
                  cpu_sum / n, wall_sum / n);
    out += buf;
  }
  return out;
}

void ReportOps(const std::vector<double>& op_ms, double cpu_ms_per_op,
               double wall_ms_per_op, const TailRule& tail_rule,
               Report* report) {
  report->end_to_end.Set("cpu_ms_per_op", cpu_ms_per_op);
  report->end_to_end.Set("wall_ms_per_op", wall_ms_per_op);
  double busy_ms = 0.0;
  for (double ms : op_ms) busy_ms += ms;
  const TailValue tail = Tail(op_ms, tail_rule);
  const double ops = static_cast<double>(op_ms.size());
  report->per_layer.Set("wall.op_p50_ms", Median(op_ms));
  report->per_layer.Set("wall.op_tail_ms", tail.value);
  report->per_layer.Set("wall.ops_per_s",
                        busy_ms > 0 ? ops / (busy_ms / 1e3) : 0.0);
  report->Record("ops", ops);
  report->Record("tail_rule", tail_rule.name);
  report->Record("tail_samples_beyond", static_cast<double>(tail.beyond));
  if (tail_rule.q > 0.0 && tail.beyond < 10) {
    report->Fail(std::string("fewer than 10 samples beyond ") +
                 tail_rule.name);
  }
}

}  // namespace perfbench
