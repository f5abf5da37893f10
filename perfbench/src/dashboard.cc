// dashboard_ingest: reads beside writes. Three dashboard-tile clients run a
// closed loop over loopback to an in-process AssessServer: each refresh
// fires all tiles together on one rotating, never-repeating slice (a date
// and a supplier region) and
// is done when the slowest tile returns. The tiles differ in group-by and
// one is a roll-up of another, so the MQO window batches them into shared
// scans. A fourth client ingests member-stable CSV batches into a durable
// database (WAL with group fsync under the run's output directory): one
// batch falls due with every 25th refresh and is sent at once, without
// waiting for the refreshes in flight, so every run has the same write
// share per refresh. One coarse view is materialized at set-up, so every
// batch takes the incremental view-delta path. The operation is one
// refresh.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "assess/session.h"
#include "client/assess_client.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "server/assessd.h"
#include "storage/star_query_engine.h"
#include "wal/durability.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScaleFactor = 0.05;  // 300K lineorders
constexpr int kTiles = 3;
constexpr int kServerWorkers = 3;
// Every thread shares one CPU: tiles, ingest and the server's threads hand
// off to each other, and on a shared virtual host waking a thread on
// another, idle vCPU costs more than a tile.
constexpr int kCpus = 1;
constexpr int kScanThreads = 1;  // EngineOptions::threads: the caller only
constexpr int kPoolWorkers = 2;
constexpr int64_t kMqoWindowUs = 20000;
constexpr int kIngestRows = 500;          // rows per batch
constexpr int kRefreshesPerBatch = 25;    // one batch due every 25 refreshes
constexpr int kPings = 200;
constexpr TailRule kTail{0.9, "p90"};
// One repetition is kGroups groups of kGroupRefreshes refreshes (one ingest
// batch each). The run repeats it, each time on a fresh set-up, at least
// kMinRepetitions times and until the repetitions add up to the window.
// Every batch grows the fact table the tiles scan.
constexpr int kGroupRefreshes = kRefreshesPerBatch;
constexpr int kGroups = 12;
constexpr int kMinRepetitions = 3;
const char* const kViewLevels[] = {"year", "c_region", "s_region", "mfgr"};

std::string TileText(int tile, const std::string& slice) {
  const std::string sel = "with SSB for " + slice + " by ";
  switch (tile) {
    case 0:
      return sel + "c_nation, s_nation assess revenue against 1000 "
                   "using ratio(revenue, 1000) labels quartiles";
    case 1:  // a roll-up of tile 0
      return sel + "c_region, s_region assess revenue against 1000 "
                   "using ratio(revenue, 1000) labels quartiles";
    default:
      return sel + "category assess quantity against 10 "
                   "using difference(quantity, 10) labels terciles";
  }
}

std::string CsvField(const std::string& field) {
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  return quoted + "\"";
}

/// One batch of member-stable rows: keys sampled from the live dimensions.
std::string IngestBatch(const assess::BoundCube& cube, assess::Rng* rng) {
  const assess::CubeSchema& schema = cube.schema();
  std::string text;
  for (int h = 0; h < schema.hierarchy_count(); ++h) {
    if (h > 0) text += ',';
    text += schema.hierarchy(h).level_name(0);
  }
  for (int m = 0; m < schema.measure_count(); ++m) {
    text += ',';
    text += schema.measure(m).name;
  }
  text += '\n';
  for (int r = 0; r < kIngestRows; ++r) {
    for (int h = 0; h < schema.hierarchy_count(); ++h) {
      const assess::DimensionTable& dim = cube.dimension(h);
      const int64_t row = static_cast<int64_t>(
          rng->Uniform(static_cast<uint64_t>(dim.NumRows())));
      if (h > 0) text += ',';
      text += CsvField(dim.hierarchy().MemberName(0, dim.CodeAt(row, 0)));
    }
    for (int m = 0; m < schema.measure_count(); ++m) {
      text += ',';
      text += std::to_string(1 + rng->Uniform(50));
    }
    text += '\n';
  }
  return text;
}

/// A reusable barrier that blocks instead of spinning, so waiting tiles add
/// no CPU time to the measurement. The last party to arrive runs the
/// completion under the barrier's lock, then releases the others.
class Rendezvous {
 public:
  explicit Rendezvous(int parties) : parties_(parties) {}

  template <typename Completion>
  void ArriveAndWait(Completion&& completion) {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t generation = generation_;
    if (++arrived_ == parties_) {
      completion();
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != generation; });
  }

 private:
  const int parties_;
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;          // guarded by mu_
  uint64_t generation_ = 0;  // guarded by mu_
};

struct Setup {
  std::string data_dir;
  std::unique_ptr<assess::DurabilityManager> durability;
  assess::StarDatabase* db = nullptr;
  std::shared_ptr<assess::TaskPool> pool;
  std::shared_ptr<assess::CubeResultCache> cache;
  std::unique_ptr<assess::AssessServer> server;
  std::vector<std::unique_ptr<assess::AssessClient>> clients;  // tiles, ingest
  std::vector<std::string> slices;  // seeded rotation; [0], [1] warm up
  double generate_s = 0.0;
  double bootstrap_s = 0.0;

  ~Setup() {
    for (auto& client : clients) client->Close();
    if (server) server->Stop();
    durability.reset();
    if (!data_dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(data_dir, ignored);
    }
  }
};

std::unique_ptr<Setup> BuildSetup(const Args& args, Report* report) {
  auto setup = std::make_unique<Setup>();
  setup->data_dir = args.out_dir + "/dashboard_wal_" + std::to_string(getpid());
  std::error_code ignored;
  std::filesystem::remove_all(setup->data_dir, ignored);
  assess::DurabilityOptions durability;
  durability.wal.fsync_mode = assess::FsyncMode::kGroup;
  const Clock::time_point open_start = Clock::now();
  auto opened = assess::DurabilityManager::Open(
      setup->data_dir, durability,
      [&]() -> assess::Result<std::unique_ptr<assess::StarDatabase>> {
        return GenerateSsb(kScaleFactor, args.seed, &setup->generate_s);
      });
  if (!opened.ok()) {
    report->Fail("durable open: " + opened.status().ToString());
    return setup;
  }
  setup->bootstrap_s =
      SecondsBetween(open_start, Clock::now()) - setup->generate_s;
  setup->durability = std::move(opened).value();
  setup->db = setup->durability->db();
  BuildDerived(*setup->db);
  {
    assess::StarQueryEngine engine(setup->db, /*use_views=*/false,
                                   /*threads=*/1);
    auto view = engine.MaterializeView(
        setup->db, "SSB",
        std::vector<std::string>(std::begin(kViewLevels), std::end(kViewLevels)),
        "dashboard_coarse");
    if (!view.ok()) report->Fail("view: " + view.status().ToString());
  }

  // The rotation of slices (date x supplier region), seeded.
  {
    const assess::CubeSchema& schema = (*setup->db->Find("SSB"))->schema();
    const assess::Hierarchy& date =
        schema.hierarchy(*schema.HierarchyOfLevel("date"));
    const assess::Hierarchy& supplier =
        schema.hierarchy(*schema.HierarchyOfLevel("s_region"));
    const int region = *supplier.LevelIndex("s_region");
    for (int32_t d = 0; d < date.LevelCardinality(0); ++d) {
      for (int32_t r = 0; r < supplier.LevelCardinality(region); ++r) {
        setup->slices.push_back("date = '" + date.MemberName(0, d) +
                                "', s_region = '" +
                                supplier.MemberName(region, r) + "'");
      }
    }
    assess::Rng rng(args.seed);
    for (size_t i = setup->slices.size(); i > 1; --i) {
      std::swap(setup->slices[i - 1], setup->slices[rng.Uniform(i)]);
    }
  }

  setup->pool = std::make_shared<assess::TaskPool>(kPoolWorkers);
  setup->cache = std::make_shared<assess::CubeResultCache>();
  assess::ServerOptions options;
  options.worker_threads = kServerWorkers;
  options.mqo_window_us = kMqoWindowUs;
  options.mqo_max_batch = kTiles;
  options.engine.threads = kScanThreads;
  options.engine.pool = setup->pool;
  options.engine.shared_cache = setup->cache;
  options.mutable_db = setup->db;
  options.durability = setup->durability.get();
  setup->server = std::make_unique<assess::AssessServer>(setup->db, options);
  assess::Status started = setup->server->Start();
  if (!started.ok()) {
    report->Fail("server start: " + started.ToString());
    return setup;
  }
  for (int c = 0; c < kTiles + 1; ++c) {
    auto client =
        assess::AssessClient::Connect("127.0.0.1", setup->server->port());
    if (!client.ok()) {
      report->Fail("connect: " + client.status().ToString());
      return setup;
    }
    setup->clients.push_back(
        std::make_unique<assess::AssessClient>(std::move(*client)));
  }
  // Warm-up: two refreshes on reserved slices, tiles fired together.
  for (int w = 0; w < 2; ++w) {
    std::vector<std::thread> tiles;
    for (int t = 0; t < kTiles; ++t) {
      tiles.emplace_back([&, t] {
        auto r = setup->clients[t]->Query(TileText(t, setup->slices[w]));
        if (!r.ok()) report->Fail("warm-up: " + r.status().ToString());
      });
    }
    for (std::thread& t : tiles) t.join();
  }
  return setup;
}

}  // namespace

void RunDashboard(const Args& args, SpanLog* spans, Report* report) {
  report->Record("cpus", PinToCpus(kCpus));
  report->Record("scale_factor", kScaleFactor);
  report->Record("tile_clients", kTiles);
  report->Record("ingest_clients", 1.0);
  report->Record("server_worker_threads", kServerWorkers);
  report->Record("engine_threads", kScanThreads);
  report->Record("pool_workers", kPoolWorkers);
  report->Record("result_cache", "on, 64 MiB");
  report->Record("mqo_window_us", static_cast<double>(kMqoWindowUs));
  report->Record("mqo_max_batch", kTiles);
  report->Record("ingest_rows_per_batch", kIngestRows);
  report->Record("ingest_due_every_refreshes", kRefreshesPerBatch);
  report->Record("flush_policy", "group fsync");
  report->Record("data_dir_fs", FilesystemType(args.out_dir));
  std::string view = "view at";
  for (const char* level : kViewLevels) view += std::string(" ") + level;
  report->Record("materialized_view", view);
  report->Record("op", "one refresh of 3 tiles");

  std::vector<double> setup_s, generate_s, bootstrap_s;
  std::unique_ptr<Setup> setup;
  std::mutex mu;  // guards the samples below
  std::vector<double> refresh_ms, ack_ms, late_ms;
  std::vector<double> step_ms[5];
  std::vector<double> non_exec_ms;
  WireSamples wire;
  // The counters of the last repetition; every repetition does the same
  // work.
  assess::IngestStats ingested;
  assess::CacheStats cache_before, cache_after;
  assess::ServerStats server_before, server_after;
  assess::TaskPoolStats pool_before, pool_after;
  assess::WalStats wal_before, wal_after;
  uint64_t checkpoints_before = 0;
  size_t current_slice = 2;
  uint64_t earlier_refreshes = 0;  // span op ids stay unique across repetitions

  // Each repetition sets up anew (one setup_s sample) and runs the same
  // refreshes and ingest batches on the same fresh database.
  OpGroups groups(kGroupRefreshes, kGroups);
  double window_s = 0.0;
  while (groups.repetitions() < kMinRepetitions || window_s < args.seconds) {
    setup.reset();
    const Clock::time_point setup_start = Clock::now();
    setup = BuildSetup(args, report);
    setup_s.push_back(SecondsBetween(setup_start, Clock::now()));
    generate_s.push_back(setup->generate_s);
    bootstrap_s.push_back(setup->bootstrap_s);
    if (!report->correct) return;

    assess::BoundCube* ssb = *setup->db->FindMutable("SSB");
    const int64_t rows_before = ssb->facts().NumRows();
    cache_before = setup->cache->stats();
    server_before = setup->server->Snapshot();
    pool_before = setup->pool->stats();
    wal_before = setup->durability->wal_stats();
    checkpoints_before = setup->durability->checkpoints();
    ingested = assess::IngestStats{};

    std::atomic<int64_t> attempted{0};
    uint64_t acked = 0;
    // Refresh coordination: the start barrier's completion fires a refresh
    // (or stops the loop); the end barrier's completion records it.
    size_t next_slice = 2;
    current_slice = 2;
    bool stop = false;
    Clock::time_point fired;
    Clock::time_point tile_end[kTiles];
    bool tile_ok[kTiles] = {};
    uint64_t refresh_op = 0;
    int64_t refresh_span = SpanLog::kNone;
    // Ingest batch k is due when refresh k * kRefreshesPerBatch fires.
    std::mutex ingest_mu;
    std::condition_variable ingest_cv;
    std::vector<Clock::time_point> ingest_due;  // guarded by ingest_mu
    bool ingest_stop = false;                   // guarded by ingest_mu
    auto start_refresh = [&] {
      stop = refresh_op == static_cast<uint64_t>(kGroups * kGroupRefreshes) ||
             next_slice >= setup->slices.size();
      current_slice = next_slice++;
      refresh_span = spans->Begin("refresh", SpanLog::kNone,
                                  earlier_refreshes + ++refresh_op);
      fired = Clock::now();
      if (stop || (refresh_op - 1) % kRefreshesPerBatch == 0) {
        std::lock_guard<std::mutex> lock(ingest_mu);
        if (stop) {
          ingest_stop = true;
        } else {
          ingest_due.push_back(fired);
        }
        ingest_cv.notify_one();
      }
    };
    auto end_refresh = [&] {
      spans->End(refresh_span);
      ++attempted;
      std::lock_guard<std::mutex> lock(mu);
      const bool ok = std::all_of(tile_ok, tile_ok + kTiles, [](bool b) { return b; });
      if (!ok) {
        report->OperationFailed("refresh with a failed tile");
        return;
      }
      Clock::time_point last = *std::max_element(tile_end, tile_end + kTiles);
      refresh_ms.push_back(SecondsBetween(fired, last) * 1e3);
      groups.OpDone(refresh_ms.back());
    };
    Rendezvous start_barrier(kTiles);
    Rendezvous end_barrier(kTiles);

    const Clock::time_point window_start = Clock::now();
    groups.BeginRepetition();
    std::vector<std::thread> threads;
    for (int t = 0; t < kTiles; ++t) {
      threads.emplace_back([&, t] {
        assess::AssessClient* client = setup->clients[t].get();
        for (;;) {
          start_barrier.ArriveAndWait(start_refresh);
          if (stop) break;
          const uint64_t op = earlier_refreshes + refresh_op;
          int64_t span = spans->Begin("tile", refresh_span, op);
          auto result = client->Query(TileText(t, setup->slices[current_slice]));
          tile_end[t] = Clock::now();
          spans->End(span);
          tile_ok[t] = result.ok();
          if (!result.ok()) {
            std::lock_guard<std::mutex> lock(mu);
            report->errors.push_back("tile: " + result.status().ToString());
          } else if (args.trace) {
            const double ms = SecondsBetween(fired, tile_end[t]) * 1e3;
            std::lock_guard<std::mutex> lock(mu);
            const assess::StepTimings& st = result->timings;
            step_ms[0].push_back((st.get_c + st.get_b + st.get_cb) * 1e3);
            step_ms[1].push_back(st.transform * 1e3);
            step_ms[2].push_back(st.join * 1e3);
            step_ms[3].push_back(st.compare * 1e3);
            step_ms[4].push_back(st.label * 1e3);
            non_exec_ms.push_back(ms - st.Total() * 1e3);
            wire.Probe(*result, report);
          }
          end_barrier.ArriveAndWait(end_refresh);
        }
      });
    }
    // The ingest client: it sends batch k once it is due, whether or not the
    // previous refreshes have returned, and times it from its due time.
    threads.emplace_back([&] {
      assess::AssessClient* client = setup->clients[kTiles].get();
      assess::Rng rng(args.seed * 7919 + 1);
      for (size_t k = 0;; ++k) {
        const std::string batch = IngestBatch(*ssb, &rng);
        Clock::time_point due;
        {
          std::unique_lock<std::mutex> lock(ingest_mu);
          ingest_cv.wait(lock,
                         [&] { return ingest_stop || ingest_due.size() > k; });
          if (ingest_due.size() <= k) break;
          due = ingest_due[k];
        }
        const double late = SecondsBetween(due, Clock::now()) * 1e3;
        const int64_t span = spans->Begin("ingest", SpanLog::kNone, 0);
        auto stats = client->Ingest("SSB", batch);
        spans->End(span);
        const double ack = SecondsBetween(due, Clock::now()) * 1e3;
        std::lock_guard<std::mutex> lock(mu);
        ++attempted;
        if (!stats.ok()) {
          report->OperationFailed("ingest: " + stats.status().ToString());
          continue;
        }
        late_ms.push_back(late);
        ack_ms.push_back(ack);
        ++acked;
        ingested.rows_ingested += stats->rows_ingested;
        ingested.rows_rejected += stats->rows_rejected;
        ingested.batches += stats->batches;
        ingested.mv_incremental_updates += stats->mv_incremental_updates;
        ingested.mv_full_rebuilds += stats->mv_full_rebuilds;
        ingested.cache_invalidations += stats->cache_invalidations;
        ingested.repacks += stats->repacks;
      }
    });
    for (std::thread& t : threads) t.join();
    window_s += SecondsBetween(window_start, Clock::now());
    earlier_refreshes += refresh_op;
    if (groups.repetitions() == 1) {
      report->end_to_end.Set("rss_mb", PeakRssMb());
    }
    report->attempted += attempted.load();

    cache_after = setup->cache->stats();
    server_after = setup->server->Snapshot();
    pool_after = setup->pool->stats();
    wal_after = setup->durability->wal_stats();

    // Correctness after quiescing: every acknowledged row is in the table,
    // and the tiles of the first (warm-up) and the last slice read through
    // the server equal a local cache-off, view-less evaluation at the final
    // epoch.
    const int64_t rows_after = ssb->facts().NumRows();
    if (rows_after - rows_before != static_cast<int64_t>(ingested.rows_ingested) ||
        ingested.rows_ingested != acked * static_cast<uint64_t>(kIngestRows)) {
      report->Fail("ingested rows " + std::to_string(ingested.rows_ingested) +
                   " do not match the table growth " +
                   std::to_string(rows_after - rows_before));
    }
    {
      assess::ExecutorOptions options;
      options.use_result_cache = false;
      options.use_views = false;
      options.threads = kScanThreads;
      options.pool = setup->pool;
      assess::AssessSession local(setup->db, options);
      for (size_t d : {size_t{0}, current_slice - 1}) {
        for (int t = 0; t < kTiles; ++t) {
          const std::string text = TileText(t, setup->slices[d]);
          auto remote = setup->clients[t]->Query(text);
          auto mine = local.Query(text);
          if (!remote.ok() || !mine.ok()) {
            report->Fail("final check query failed: " + text);
            continue;
          }
          const std::string diff = CompareResults(*remote, *mine);
          if (!diff.empty()) report->Fail("tile differs at final epoch: " + diff);
        }
      }
    }
  }
  ReportSetup(setup_s, report);
  report->per_layer.Set("ssb.generate_s", Median(generate_s));
  report->per_layer.Set("wal.bootstrap_s", Median(bootstrap_s));
  ReportOps(refresh_ms, groups.CpuMsPerOp(), groups.WallMsPerOp(), kTail,
            report);
  report->Record("repetitions", static_cast<double>(groups.repetitions()));
  report->Record("cpu_wall_ms_per_op_groups", groups.ToString());
  report->Record("cpu_wall_ms_per_op_repetitions",
                 groups.RepetitionsToString());
  report->Record("ingest_batches", static_cast<double>(ack_ms.size()));
  report->Record("ingest_p50_ms", Median(ack_ms));
  report->Record("window_s", window_s);

  if (!args.trace) return;
  MetricTable& layer = report->per_layer;
  const char* const steps[5] = {"assess.get_ms", "assess.transform_ms",
                                "assess.join_ms", "assess.compare_ms",
                                "assess.label_ms"};
  for (int i = 0; i < 5; ++i) layer.Set(steps[i], Median(step_ms[i]));
  ReportCacheDelta(cache_before, cache_after, report);
  ReportServerDelta(server_before, server_after, report);
  layer.Set("pool.morsels_run",
            static_cast<double>(pool_after.morsels_run - pool_before.morsels_run));
  layer.Set("client.non_exec_ms", Median(non_exec_ms));
  layer.Set("client.ping_us",
            PingMedianUs(setup->clients[0].get(), kPings, report));
  wire.Publish(report);
  layer.Set("ingest.rows", static_cast<double>(ingested.rows_ingested));
  layer.Set("ingest.batches", static_cast<double>(ingested.batches));
  layer.Set("ingest.ack_p50_ms", Median(ack_ms));
  layer.Set("ingest.late_ms",
            late_ms.empty() ? 0.0 : *std::max_element(late_ms.begin(), late_ms.end()));
  layer.Set("ingest.mv_incremental_updates",
            static_cast<double>(ingested.mv_incremental_updates));
  layer.Set("ingest.cache_invalidations",
            static_cast<double>(ingested.cache_invalidations));
  layer.Set("ingest.repacks", static_cast<double>(ingested.repacks));
  const double rows = static_cast<double>(ingested.rows_ingested);
  layer.Set("wal.bytes_per_row",
            rows > 0 ? static_cast<double>(wal_after.bytes_written -
                                           wal_before.bytes_written) /
                           rows
                     : 0.0);
  layer.Set("wal.fsyncs_per_batch",
            ingested.batches > 0
                ? static_cast<double>(wal_after.fsyncs - wal_before.fsyncs) /
                      static_cast<double>(ingested.batches)
                : 0.0);
  layer.Set("wal.checkpoints",
            static_cast<double>(setup->durability->checkpoints() -
                                checkpoints_before));
  std::vector<std::string> texts;
  std::vector<PlannedStatement> planned;
  for (int t = 0; t < kTiles; ++t) {
    texts.push_back(TileText(t, setup->slices[current_slice - 1]));
    planned.push_back({texts.back(), std::nullopt});
  }
  ProbeFrontEnd(*setup->db, texts, 50, spans, report);
  ProbeStorage(*setup->db, planned, setup->pool, kScanThreads, spans, report);
}

}  // namespace perfbench
