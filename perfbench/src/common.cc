#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

TailValue Tail(const std::vector<double>& values, const TailRule& rule) {
  TailValue tail;
  if (values.empty()) return tail;
  if (rule.q <= 0.0) {
    tail.value = *std::max_element(values.begin(), values.end());
    return tail;
  }
  tail.value = Quantile(values, rule.q);
  tail.beyond = std::count_if(values.begin(), values.end(),
                              [&](double v) { return v > tail.value; });
  return tail;
}

// ---------------------------------------------------------------------------
// Metric tables.

MetricTable::MetricTable(const std::string& list) {
  std::istringstream items(list);
  std::string item;
  while (std::getline(items, item, ',')) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size() ||
        !entries_.emplace(item.substr(0, eq), Entry{item.substr(eq + 1)})
             .second) {
      std::fprintf(stderr, "perfbench: bad metric list entry '%s'\n",
                   item.c_str());
      std::abort();
    }
    order_.push_back(item.substr(0, eq));
  }
}

void MetricTable::Set(const std::string& name, double value) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::fprintf(stderr, "perfbench: unknown metric '%s'\n", name.c_str());
    std::abort();
  }
  it->second.value = std::isfinite(value) ? value : 0.0;
  it->second.set = true;
}

double MetricTable::Get(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? 0.0 : it->second.value;
}

std::vector<std::string> MetricTable::Unset() const {
  std::vector<std::string> names;
  for (const std::string& name : order_) {
    if (!entries_.at(name).set) names.push_back(name);
  }
  return names;
}

std::string MetricTable::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const Entry& entry = entries_.at(order_[i]);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entry.value);
    if (i > 0) out += ", ";
    out += JsonString(order_[i]) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(entry.unit) + "}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Span log.

uint32_t SpanLog::ThreadIndexLocked() {
  std::ostringstream id;
  id << std::this_thread::get_id();
  auto [it, inserted] =
      threads_.emplace(id.str(), static_cast<uint32_t>(threads_.size()));
  return it->second;
}

int64_t SpanLog::Begin(const std::string& name, int64_t parent, uint64_t op) {
  if (!enabled_) return kNone;
  const double now = SecondsBetween(epoch_, Clock::now()) * 1e6;
  std::lock_guard<std::mutex> lock(mutex_);
  Event event;
  event.name = name;
  event.parent = parent;
  event.op = op;
  event.thread = ThreadIndexLocked();
  event.start_us = now;
  events_.push_back(std::move(event));
  return static_cast<int64_t>(events_.size()) - 1;
}

void SpanLog::End(int64_t id) {
  if (!enabled_ || id == kNone) return;
  const double now = SecondsBetween(epoch_, Clock::now()) * 1e6;
  std::lock_guard<std::mutex> lock(mutex_);
  events_[static_cast<size_t>(id)].end_us = now;
}

void SpanLog::AddProgramTrace(const assess::TraceContext& trace,
                              Clock::time_point trace_epoch, int64_t parent,
                              uint64_t op) {
  if (!enabled_) return;
  const double offset_us = SecondsBetween(epoch_, trace_epoch) * 1e6;
  std::vector<assess::SpanNode> nodes = trace.Snapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t base = static_cast<int64_t>(events_.size());
  // Program threads get their own lanes, after the benchmark's threads.
  const uint32_t lane = static_cast<uint32_t>(threads_.size()) + 100;
  for (const assess::SpanNode& node : nodes) {
    Event event;
    event.name = node.name;
    event.parent = node.parent >= 0 ? base + node.parent : parent;
    event.op = op;
    event.thread = lane + static_cast<uint32_t>(node.thread);
    event.start_us = offset_us + static_cast<double>(node.start_ns) / 1e3;
    event.end_us = node.duration_ns >= 0
                       ? event.start_us +
                             static_cast<double>(node.duration_ns) / 1e3
                       : -1.0;
    events_.push_back(std::move(event));
  }
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(out, "{\"traceEvents\": [\n");
  bool first = true;
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (e.end_us < 0.0) continue;
    std::fprintf(out,
                 "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"op\": %llu}}",
                 first ? "" : ",\n", JsonString(e.name).c_str(), e.thread,
                 e.start_us, e.end_us - e.start_us, i,
                 static_cast<long long>(e.parent),
                 static_cast<unsigned long long>(e.op));
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// Program span trees.

TraceFacts ReadTraceFacts(const assess::TraceContext& trace) {
  TraceFacts facts;
  std::vector<assess::SpanNode> nodes = trace.Snapshot();
  std::unordered_map<int32_t, size_t> by_id;
  for (size_t i = 0; i < nodes.size(); ++i) by_id[nodes[i].id] = i;
  // Closest engine.scan ancestor of each span (or -1).
  auto scan_ancestor = [&](const assess::SpanNode& node) -> int32_t {
    int32_t p = node.parent;
    while (p >= 0) {
      auto it = by_id.find(p);
      if (it == by_id.end()) return -1;
      if (nodes[it->second].name == "engine.scan") return p;
      p = nodes[it->second].parent;
    }
    return -1;
  };
  std::unordered_map<int32_t, std::vector<std::pair<int64_t, int64_t>>> drains;
  for (const assess::SpanNode& node : nodes) {
    if (node.duration_ns < 0) continue;
    if (node.name == "pool.drain") {
      facts.drain_ms += static_cast<double>(node.duration_ns) / 1e6;
      const int32_t scan = scan_ancestor(node);
      if (scan >= 0) {
        drains[scan].push_back(
            {node.start_ns, node.start_ns + node.duration_ns});
      }
    }
    if (node.name != "engine.scan") continue;
    facts.scan_ms += static_cast<double>(node.duration_ns) / 1e6;
    for (const assess::TraceAttr& attr : node.attrs) {
      if (attr.key == "kernel") {
        (attr.string_value == "hash" ? facts.hash_scans : facts.dense_scans)++;
      } else if (attr.key == "rows_visited") {
        facts.rows_visited += attr.int_value;
      } else if (attr.key == "morsels_scanned") {
        facts.morsels_scanned += attr.int_value;
      } else if (attr.key == "morsels_skipped") {
        facts.morsels_skipped += attr.int_value;
      }
    }
  }
  // Merge time: each scan's wall time minus the union of its drains.
  for (const assess::SpanNode& node : nodes) {
    if (node.name != "engine.scan" || node.duration_ns < 0) continue;
    std::vector<std::pair<int64_t, int64_t>>& spans = drains[node.id];
    std::sort(spans.begin(), spans.end());
    int64_t covered = 0;
    int64_t cur_start = 0;
    int64_t cur_end = -1;
    for (const auto& [start, end] : spans) {
      if (start > cur_end) {
        if (cur_end > cur_start) covered += cur_end - cur_start;
        cur_start = start;
        cur_end = end;
      } else {
        cur_end = std::max(cur_end, end);
      }
    }
    if (cur_end > cur_start) covered += cur_end - cur_start;
    facts.merge_ms +=
        static_cast<double>(std::max<int64_t>(0, node.duration_ns - covered)) /
        1e6;
  }
  return facts;
}

// ---------------------------------------------------------------------------
// Host diagnostics.

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu != "cpu") return times;
  uint64_t value = 0;
  for (int field = 0; field < 10 && (stat >> value); ++field) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    if (field < 8) times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double StealPercent(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total) return 0.0;
  return 100.0 * static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double CalibrationMs() {
  const Clock::time_point start = Clock::now();
  uint64_t x = 88172645463325252ull;
  double acc = 0.0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 1023) * 0.5;
  }
  volatile double sink = acc;
  (void)sink;
  return MsSince(start);
}

double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         1e-6 * (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string FilesystemType(const std::string& dir) {
  struct statfs info;
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

namespace {

// The CPUs the process started with, saved by the first PinToCpus call.
cpu_set_t& StartingCpus() {
  static cpu_set_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) CPU_SET(c, &set);
    }
    return set;
  }();
  return cpus;
}

}  // namespace

std::string PinToCpus(int count) {
  const cpu_set_t& allowed = StartingCpus();
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string names;
  for (int c = CPU_SETSIZE - 1; c >= 0 && count > 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, &chosen);
    names = std::to_string(c) + (names.empty() ? "" : " ") + names;
    --count;
  }
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) return "unpinned";
  return names;
}

void UnpinCpus() {
  const cpu_set_t& allowed = StartingCpus();
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

// ---------------------------------------------------------------------------
// Result digests and comparisons.

namespace {

struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Str(const std::string& s) {
    Pod(s.size());
    Bytes(s.data(), s.size());
  }
};

// Keyed by member names: a decoded wire result carries names, not the
// server's member ids.
std::string CoordKey(const assess::Cube& cube, int64_t row) {
  std::string key;
  for (int l = 0; l < cube.level_count(); ++l) {
    key += cube.CoordName(row, l);
    key += '\x1f';
  }
  return key;
}

}  // namespace

uint64_t DigestResult(const assess::AssessResult& result) {
  const assess::Cube& cube = result.cube;
  Fnv fnv;
  fnv.Pod(cube.NumRows());
  for (int l = 0; l < cube.level_count(); ++l) {
    for (assess::MemberId id : cube.coord_column(l)) fnv.Pod(id);
  }
  for (int m = 0; m < cube.measure_count(); ++m) {
    fnv.Str(cube.measure_name(m));
    for (double v : cube.measure_column(m)) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      fnv.Pod(bits);
    }
  }
  for (const std::string& label : cube.labels()) fnv.Str(label);
  return fnv.h;
}

std::string CompareResults(const assess::AssessResult& a,
                           const assess::AssessResult& b) {
  if (a.cube.NumRows() != b.cube.NumRows()) {
    return "row count " + std::to_string(a.cube.NumRows()) + " vs " +
           std::to_string(b.cube.NumRows());
  }
  std::unordered_map<std::string, int64_t> rows_b;
  for (int64_t r = 0; r < b.cube.NumRows(); ++r) {
    rows_b[CoordKey(b.cube, r)] = r;
  }
  for (const std::string& measure :
       {a.measure, a.benchmark_measure, a.comparison_measure}) {
    auto ia = a.cube.MeasureIndex(measure);
    auto ib = b.cube.MeasureIndex(measure);
    if (ia.ok() != ib.ok()) return "measure " + measure + " presence differs";
    if (!ia.ok()) continue;
    for (int64_t r = 0; r < a.cube.NumRows(); ++r) {
      auto it = rows_b.find(CoordKey(a.cube, r));
      if (it == rows_b.end()) return "cell missing on one side";
      const double va = a.cube.MeasureAt(r, *ia);
      const double vb = b.cube.MeasureAt(it->second, *ib);
      if (std::isnan(va) || std::isnan(vb)) {
        if (std::isnan(va) != std::isnan(vb)) return measure + " NaN differs";
        continue;
      }
      if (std::fabs(va - vb) > 1e-9 * (1.0 + std::fabs(va))) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), " %.17g vs %.17g", va, vb);
        return measure + buf;
      }
    }
  }
  const bool la = !a.cube.labels().empty();
  const bool lb = !b.cube.labels().empty();
  if (la != lb) return "labels present on one side only";
  if (la) {
    for (int64_t r = 0; r < a.cube.NumRows(); ++r) {
      const int64_t rb = rows_b[CoordKey(a.cube, r)];
      if (a.cube.labels()[r] != b.cube.labels()[rb]) {
        return "label " + a.cube.labels()[r] + " vs " + b.cube.labels()[rb];
      }
    }
  }
  return "";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
