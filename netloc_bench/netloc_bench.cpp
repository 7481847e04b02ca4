// netloc_bench: the repository's benchmark (README.md in this directory).
//
//   netloc_bench [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
//                [--trace-out run.json] [--out results.json] [--quick]
//                [--manifest BENCHMARK.json]
//   netloc_bench compare parent.json[,...] change.json[,...]
//   netloc_bench --print-digests [--quick] [--workload W]
//
// Two workloads: the paper's Table 3 sweep and the windowed-congestion
// sweep. A timed run prints every end-to-end metric as "workload metric
// value unit"; a --trace run replays each workload stage by stage
// through the same public calls and prints the per-layer metrics
// instead. The last stdout line is one JSON object {"correct",
// "attempted","failed","metrics"}. Outputs are checked (committed
// digests, 1-vs-N-worker identity, replay-vs-engine identity) and any
// mismatch makes the run exit non-zero.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "netloc/analysis/experiment.hpp"
#include "netloc/analysis/export.hpp"
#include "netloc/common/binary_io.hpp"
#include "netloc/engine/result_cache.hpp"
#include "netloc/engine/sweep.hpp"
#include "netloc/mapping/mapping.hpp"
#include "netloc/metrics/congestion.hpp"
#include "netloc/metrics/hops.hpp"
#include "netloc/metrics/traffic_matrix.hpp"
#include "netloc/metrics/utilization.hpp"
#include "netloc/metrics/windowed.hpp"
#include "netloc/topology/configs.hpp"
#include "netloc/topology/route_plan.hpp"
#include "netloc/workloads/catalog.hpp"
#include "netloc/workloads/workload.hpp"

namespace {

namespace nb = netloc_bench;
namespace fs = std::filesystem;
using namespace netloc;
using nb::Clock;
using nb::Json;
using nb::MetricSpec;
using nb::seconds_since;

// ---- metrics -----------------------------------------------------------------

// End to end: what a user of the sweep waits for and pays in memory.
// Every workload reports all of them. setup_s is well under a
// millisecond, so its 5 ms floor, not its share, decides a regression.
// Timing bounds are 0.25, not 10%: on a shared 4-vCPU VM the host's own
// speed drifts by 10-15% within minutes (README.md).
constexpr MetricSpec kSetup{"setup_s", "s", true, 0.25, 0.005};
constexpr MetricSpec kWall{"wall_s", "s", true, 0.25};
constexpr MetricSpec kWall1w{"wall_1w_s", "s", true, 0.25};
constexpr MetricSpec kSpeedup{"speedup", "x", false, 0.25};
constexpr MetricSpec kPeakRss{"peak_rss_mb", "MB", true, 0.05};
const std::vector<const MetricSpec*> kEndToEnd = {&kSetup, &kWall, &kWall1w,
                                                   &kSpeedup, &kPeakRss};

// Per layer, from the traced run. These every workload measures; they
// form the per_layer list of BENCHMARK.json.
constexpr MetricSpec kGenerate{"workloads.generate_s", "s", true, 0};
constexpr MetricSpec kEvents{"workloads.events", "count", true, 0};
constexpr MetricSpec kIngest{"metrics.ingest_s", "s", true, 0};
constexpr MetricSpec kAccumulateSelf{"metrics.accumulate_self_s", "s", true, 0};
constexpr MetricSpec kNonzeroPairs{"metrics.nonzero_pairs", "count", true, 0};
constexpr MetricSpec kTopologyBuild{"topology.build_s", "s", true, 0};
constexpr MetricSpec kPlanBuild{"topology.plan_build_s", "s", true, 0};
constexpr MetricSpec kPlansBuilt{"topology.plans_built", "count", true, 0};
constexpr MetricSpec kCell{"analysis.cell_s", "s", true, 0};
constexpr MetricSpec kHopStats{"metrics.hop_stats_s", "s", true, 0};
constexpr MetricSpec kUtilPaper{"metrics.utilization_paper_s", "s", true, 0};
constexpr MetricSpec kLinkLoads{"metrics.link_loads_s", "s", true, 0};
constexpr MetricSpec kUtilUsed{"metrics.utilization_used_s", "s", true, 0};
constexpr MetricSpec kRoutePassRatio{"analysis.route_pass_ratio", "ratio", true, 0};
constexpr MetricSpec kCongestion{"metrics.congestion_report_s", "s", true, 0};
constexpr MetricSpec kWindowPairs{"metrics.window_nonzero_pairs", "count", true, 0};
constexpr MetricSpec kWindowRouteRatio{"metrics.window_route_ratio", "ratio", true, 0};
constexpr MetricSpec kKernelsNt{"metrics.kernels_nt_s", "s", true, 0};
constexpr MetricSpec kKernelSpeedup{"metrics.kernel_speedup", "x", false, 0};
constexpr MetricSpec kCsv{"analysis.csv_s", "s", true, 0};
constexpr MetricSpec kRelease{"analysis.release_s", "s", true, 0};
constexpr MetricSpec kGenerateJobs{"engine.generate_job_s", "s", true, 0};
constexpr MetricSpec kTopologyJobs{"engine.topology_job_s", "s", true, 0};
constexpr MetricSpec kFinalizeJobs{"engine.finalize_job_s", "s", true, 0};
constexpr MetricSpec kJobsRun{"engine.jobs_run", "count", true, 0};
constexpr MetricSpec kBusyRatio{"engine.busy_ratio", "ratio", false, 0};
constexpr MetricSpec kJobInflation{"engine.job_inflation", "x", true, 0};
constexpr MetricSpec kCriticalPath{"engine.critical_path_s", "s", true, 0};
constexpr MetricSpec kAttributedRatio{"engine.attributed_ratio", "ratio", false, 0};
const std::vector<const MetricSpec*> kPerLayer = {
    &kGenerate,     &kEvents,        &kIngest,          &kAccumulateSelf,
    &kNonzeroPairs, &kTopologyBuild, &kPlanBuild,       &kPlansBuilt,
    &kCell,         &kHopStats,      &kUtilPaper,       &kLinkLoads,
    &kUtilUsed,     &kRoutePassRatio, &kCongestion,     &kWindowPairs,
    &kWindowRouteRatio, &kKernelsNt, &kKernelSpeedup,   &kCsv,
    &kRelease,      &kGenerateJobs,  &kTopologyJobs,    &kFinalizeJobs,
    &kJobsRun,      &kBusyRatio,     &kJobInflation,    &kCriticalPath,
    &kAttributedRatio};

// Per layer, printed and written to --out but not in BENCHMARK.json:
// the result cache is only in paper_sweep, and unattributed_s is a
// difference that can come out at or below zero.
constexpr MetricSpec kUnattributed{"engine.unattributed_s", "s", true, 0};
constexpr MetricSpec kCacheStore{"engine.cache_store_s", "s", true, 0};
constexpr MetricSpec kCacheLoad{"engine.cache_load_s", "s", true, 0};
const std::vector<const MetricSpec*> kWorkloadLayer = {&kUnattributed, &kCacheStore,
                                                       &kCacheLoad};

// ---- committed digests ---------------------------------------------------------

/// Holdout seed: digests exist for it so a change can be checked on a
/// seed it was not developed against.
constexpr std::uint64_t kHoldoutSeed = 2;

/// FNV-1a-64 digests of the outputs (CSV bytes), for the default and
/// holdout seeds and for --quick.
/// Regenerate with `netloc_bench --print-digests [--quick]`.
struct DigestEntry {
  const char* workload;
  bool quick;
  std::uint64_t seed;
  const char* key;
  std::uint64_t value;
};
const std::vector<DigestEntry> kDigests = {
    {"paper_sweep", false, 0x1cc920200001ull, "table3", 0x7de7a89f135fb4c3ull},
    {"congestion_sweep", false, 0x1cc920200001ull, "table3", 0x6b96039477316972ull},
    {"congestion_sweep", false, 0x1cc920200001ull, "congestion", 0x1a561ba489bb48adull},
    {"paper_sweep", false, 0x2ull, "table3", 0xdb6b2070620b861aull},
    {"congestion_sweep", false, 0x2ull, "table3", 0x60318c182093b224ull},
    {"congestion_sweep", false, 0x2ull, "congestion", 0xd327667ebe91c71full},
    {"paper_sweep", true, 0x1cc920200001ull, "table3", 0xa0bd4dde05b2b2e3ull},
    {"congestion_sweep", true, 0x1cc920200001ull, "table3", 0xa0bd4dde05b2b2e3ull},
    {"congestion_sweep", true, 0x1cc920200001ull, "congestion", 0x6eae28b1cf4a5b97ull},
};

std::optional<std::uint64_t> committed_digest(const std::string& workload,
                                              bool quick, std::uint64_t seed,
                                              const std::string& key) {
  for (const auto& d : kDigests) {
    if (workload == d.workload && quick == d.quick && seed == d.seed &&
        key == d.key) {
      return d.value;
    }
  }
  return std::nullopt;
}

/// Seeds whose digests are committed; any other seed is checked for
/// internal consistency only.
bool digest_seed(std::uint64_t seed, bool quick) {
  return seed == workloads::kDefaultSeed || (!quick && seed == kHoldoutSeed);
}

std::string hex64(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::uint64_t fnv(const std::string& bytes) {
  Fnv1a hash;
  hash.update(bytes.data(), bytes.size());
  return hash.value();
}

std::string table3_csv(const std::vector<analysis::ExperimentRow>& rows) {
  std::ostringstream out;
  analysis::write_table3_csv(rows, out);
  return out.str();
}

std::string congestion_csv(const std::vector<analysis::ExperimentRow>& rows) {
  std::ostringstream out;
  analysis::write_congestion_csv(rows, out);
  return out.str();
}

// ---- run configuration ---------------------------------------------------------

struct Config {
  std::uint64_t seed = workloads::kDefaultSeed;
  double seconds = 45.0;
  bool quick = false;
  int nproc = 1;
  /// Scratch directory of this process (result-cache dirs), relative to
  /// the working directory and removed at exit.
  std::string scratch;
};

/// --quick keeps the catalog rows with at most this many ranks.
constexpr int kQuickMaxRanks = 64;
/// Children are killed if they run this long: a hung child must not
/// stall the whole run.
constexpr unsigned kChildTimeoutS = 170;

/// A workload: one engine sweep over the catalog rows with at most
/// `max_ranks` ranks. Why each exists is in BENCHMARK.json and README.md.
struct Workload {
  std::string name;
  int max_ranks = 0;
  int congestion_windows = 0;  ///< 0 = congestion off.
  bool cache = false;          ///< Fresh result-cache dir per iteration.
};

/// The congestion rank cap keeps any one row from being most of the
/// 1-worker batch: a row that is sets the N-worker wall by itself, and
/// that wall then depends on when the scheduler happens to start the
/// row. At 64 windows (the netloc_cli congestion default) LULESH/512 is
/// 3.1 s of the 6.9 s 512-rank batch.
const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> list = {
      {"paper_sweep", 1 << 30, 0, true},
      {"congestion_sweep", 256, 64, false},
  };
  return list;
}

/// A timing child: arms the watchdog, then runs `body`.
std::unique_ptr<nb::ForkedChild> spawn(const std::function<Json()>& body) {
  return std::make_unique<nb::ForkedChild>([&body] {
    ::alarm(kChildTimeoutS);
    return body();
  });
}

/// Check `digests` (key -> hex) of one iteration against the first
/// iteration's and, for committed seeds, against the committed values.
void check_digests(nb::WorkloadResult& result, const Config& config,
                   const Json& digests, std::map<std::string, std::string>& first) {
  for (const auto& [key, value] : digests.as_object()) {
    const std::string hex = value.as_string();
    const auto [it, inserted] = first.try_emplace(key, hex);
    if (!inserted && it->second != hex) {
      result.fail(key + " digest differs between iterations: " + it->second +
                  " vs " + hex);
      continue;
    }
    if (!inserted || !digest_seed(config.seed, config.quick)) continue;
    const auto committed =
        committed_digest(result.name, config.quick, config.seed, key);
    if (!committed) {
      result.fail("no committed " + key + " digest for seed " +
                  std::to_string(config.seed));
    } else if (hex64(*committed) != hex) {
      result.fail(key + " digest " + hex + " != committed " + hex64(*committed));
    }
  }
}

std::vector<workloads::CatalogEntry> sweep_entries(const Workload& workload,
                                                   const Config& config) {
  const int limit = config.quick ? kQuickMaxRanks : workload.max_ranks;
  std::vector<workloads::CatalogEntry> entries;
  for (const auto& entry : workloads::catalog()) {
    if (entry.ranks <= limit) entries.push_back(entry);
  }
  return entries;
}

analysis::RunOptions sweep_run_options(const Workload& workload, const Config& config) {
  analysis::RunOptions run;
  run.seed = config.seed;
  run.congestion.windows = workload.congestion_windows;
  return run;
}

// ---- timed run ----------------------------------------------------------------------

/// One timed sweep in the current (forked) process: setup from the
/// child's start to a constructed engine, then the batch. Setup clocks
/// start in the child, not before fork(): the fork's cost grows with the
/// benchmark parent's own heap and moved setup_s by a third.
Json sweep_child(const Workload& workload, const Config& config, int jobs) {
  const auto started = Clock::now();
  const std::string dir =
      config.scratch + "/" + workload.name + "-" + std::to_string(::getpid());
  const auto entries = sweep_entries(workload, config);
  engine::SweepOptions options;
  options.run = sweep_run_options(workload, config);
  options.jobs = jobs;
  if (workload.cache) options.cache_dir = dir + "/cache";
  engine::SweepEngine sweep(options);
  Json out = Json::object();
  out.set("setup_s", seconds_since(started));

  const auto begin = Clock::now();
  const auto rows = sweep.run_rows(entries);
  out.set("wall_s", seconds_since(begin));

  if (rows.size() != entries.size()) throw Error("sweep returned a short batch");
  Json digests = Json::object();
  digests.set("table3", hex64(fnv(table3_csv(rows))));
  if (workload.congestion_windows > 0) {
    digests.set("congestion", hex64(fnv(congestion_csv(rows))));
  }
  out.set("digests", std::move(digests));
  fs::remove_all(dir);
  return out;
}

/// Timed run: each iteration one fresh child. Iterations come in pairs,
/// one at N workers then one at 1 worker, so that both kinds meet the
/// same host: the host's speed drifts on a shared VM. The run stops once
/// the next pair, taken to last as long as the previous one, would end
/// after `seconds` (after one pair in quick mode), so it never overshoots
/// by a whole pair. One N-worker iteration runs first and is checked but
/// not timed: the first heavy child after a pause runs up to 40% slow on
/// a shared VM.
nb::WorkloadResult timed_sweep(const Workload& workload, const Config& config) {
  nb::WorkloadResult result;
  result.name = workload.name;
  std::vector<double> setup, wall, wall_1w, peak_rss;
  std::map<std::string, std::string> first;
  // One checked iteration; false when its child failed.
  const auto iteration = [&](bool single, bool timed) {
    const int workers = single ? 1 : config.nproc;
    auto child = spawn([&] { return sweep_child(workload, config, workers); });
    child->finish();
    ++result.attempted;
    if (!child->ok()) {
      result.fail("child (" + std::to_string(workers) + " workers): " +
                  child->error());
      return false;
    }
    const Json& out = child->result();
    check_digests(result, config, out.at("digests"), first);
    if (!timed) return true;
    setup.push_back(out.get_number("setup_s"));
    if (single) {
      wall_1w.push_back(out.get_number("wall_s"));
      // The 1-worker peak repeats; the N-worker peak depends on which
      // rows the scheduler happens to overlap.
      peak_rss.push_back(child->peak_rss_mb());
    } else {
      wall.push_back(out.get_number("wall_s"));
    }
    return true;
  };
  if (!config.quick && !iteration(false, false)) return result;
  const auto begin = Clock::now();
  while (true) {
    const auto started = Clock::now();
    if (!iteration(false, true) || !iteration(true, true)) return result;
    if (config.quick || seconds_since(begin) + seconds_since(started) > config.seconds) {
      break;
    }
  }
  if (result.failed != 0) return result;
  // Each 1-worker batch over the median N-worker batch: the ratio of the
  // medians, with a sample per 1-worker iteration.
  std::vector<double> speedup;
  const double many = nb::quartiles(wall).median;
  for (const double single : wall_1w) speedup.push_back(single / many);
  result.add(kSetup, setup);
  result.add(kWall, wall);
  result.add(kWall1w, wall_1w);
  result.add(kSpeedup, speedup);
  result.add(kPeakRss, peak_rss);
  return result;
}

// ---- traced replay ------------------------------------------------------------------

/// Counts the events of one generator pass and drops them: the
/// generate-only cost the ingest stage is measured against.
class CountingSink final : public trace::EventSink {
 public:
  void on_begin(std::string_view /*app*/, int /*ranks*/) override {}
  void on_p2p(const trace::P2PEvent& /*event*/) override { ++events_; }
  void on_collective(const trace::CollectiveEvent& /*event*/) override { ++events_; }
  void on_end(Seconds /*duration*/) override {}
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  std::uint64_t events_ = 0;
};

/// Per-layer values accumulated by a traced child, keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// The four metric kernels of one cell, each alone at 1 thread, then
/// together at `threads`; plus the congestion report over `windows`.
/// Checks the kernels against the cell's own result.
void replay_kernels(nb::Tracer& tracer, const std::string& label,
                    const metrics::TrafficMatrix& matrix,
                    const topology::Topology& topo,
                    const topology::RoutePlan& plan, int ranks, Seconds duration,
                    std::span<const metrics::TrafficMatrix> windows,
                    Seconds window_seconds,
                    const metrics::CongestionOptions& congestion, int threads,
                    const analysis::TopologyResult& cell, LayerValues& values,
                    std::vector<std::string>& failures) {
  const auto mapping = mapping::Mapping::linear(ranks, topo.num_nodes());
  metrics::HopStats hops;
  {
    nb::ScopedSpan span(tracer, "metrics.hop_stats", label);
    hops = metrics::hop_stats(matrix, topo, mapping, &plan, 1);
    values[kHopStats.name] += span.stop();
  }
  {
    nb::ScopedSpan span(tracer, "metrics.utilization_paper", label);
    (void)metrics::utilization(matrix, topo, mapping, duration,
                               metrics::LinkCountMode::PaperFormula,
                               metrics::kPaperBandwidthBytesPerS, &plan);
    values[kUtilPaper.name] += span.stop();
  }
  metrics::LinkLoadStats loads;
  {
    nb::ScopedSpan span(tracer, "metrics.link_loads", label);
    loads = metrics::link_loads(matrix, topo, mapping, &plan, 1);
    values[kLinkLoads.name] += span.stop();
  }
  {
    nb::ScopedSpan span(tracer, "metrics.utilization_used", label);
    (void)metrics::utilization(matrix, topo, mapping, duration,
                               metrics::LinkCountMode::UsedLinks,
                               metrics::kPaperBandwidthBytesPerS, &plan, 1);
    values[kUtilUsed.name] += span.stop();
  }
  metrics::CongestionSummary summary;
  {
    nb::ScopedSpan span(tracer, "metrics.congestion_report", label);
    summary = metrics::congestion_report(windows, window_seconds, plan, mapping,
                                         congestion, 1);
    values[kCongestion.name] += span.stop();
  }
  {
    nb::ScopedSpan span(tracer, "metrics.kernels_nt", label);
    const auto hops_nt = metrics::hop_stats(matrix, topo, mapping, &plan, threads);
    (void)metrics::utilization(matrix, topo, mapping, duration,
                               metrics::LinkCountMode::PaperFormula,
                               metrics::kPaperBandwidthBytesPerS, &plan, threads);
    const auto loads_nt = metrics::link_loads(matrix, topo, mapping, &plan, threads);
    (void)metrics::utilization(matrix, topo, mapping, duration,
                               metrics::LinkCountMode::UsedLinks,
                               metrics::kPaperBandwidthBytesPerS, &plan, threads);
    values[kKernelsNt.name] += span.stop();
    if (hops_nt.packet_hops != hops.packet_hops ||
        loads_nt.used_links != loads.used_links) {
      failures.push_back(label + ": kernels differ between 1 and " +
                         std::to_string(threads) + " threads");
    }
  }
  if (hops.packet_hops != cell.packet_hops || loads.used_links != cell.used_links ||
      (cell.congestion.enabled && !(summary == cell.congestion))) {
    failures.push_back(label + " " + topo.name() +
                       ": kernels called alone disagree with the cell");
  }
}

/// The ratios over a finished replay's sums. `cell_routes_windows`:
/// the cells ran the congestion report themselves.
void derive_ratios(LayerValues& values, bool cell_routes_windows) {
  const double cell_congestion = cell_routes_windows ? values[kCongestion.name] : 0.0;
  values[kRoutePassRatio.name] = (values[kCell.name] - values[kHopStats.name] -
                                  values[kUtilPaper.name] - cell_congestion) /
                                 values[kLinkLoads.name];
  values[kWindowRouteRatio.name] =
      values[kWindowPairs.name] / values[kNonzeroPairs.name];
  values[kKernelSpeedup.name] =
      (values[kHopStats.name] + values[kUtilPaper.name] + values[kLinkLoads.name] +
       values[kUtilUsed.name]) /
      values[kKernelsNt.name];
}

Json strings_json(const std::vector<std::string>& items) {
  Json out = Json::array();
  for (const auto& item : items) out.push(item);
  return out;
}

/// What a traced child sends back.
Json traced_output(const nb::Tracer& tracer, const LayerValues& values,
                   const std::vector<std::string>& failures) {
  Json out = Json::object();
  Json values_out = Json::object();
  for (const auto& [name, value] : values) values_out.set(name, value);
  out.set("values", std::move(values_out));
  out.set("failures", strings_json(failures));
  out.set("spans", tracer.to_json());
  return out;
}

/// Serial stage-by-stage replay of catalog rows through the public
/// calls the engine's jobs make, with every metric kernel then called
/// alone on the same inputs. Returns the replayed rows.
std::vector<analysis::ExperimentRow> replay_rows(
    nb::Tracer& tracer, const std::vector<workloads::CatalogEntry>& entries,
    const analysis::RunOptions& run, int threads, LayerValues& values,
    std::vector<std::string>& failures) {
  std::map<std::string, std::shared_ptr<const topology::RoutePlan>> plans;
  std::vector<analysis::ExperimentRow> rows;
  for (const auto& entry : entries) {
    const std::string label = entry.label();
    const auto& gen = workloads::generator(entry.app);
    CountingSink counter;
    double generate_s = 0.0;
    {
      nb::ScopedSpan span(tracer, "workloads.generate", label);
      gen.generate_into(entry, run.seed, counter);
      generate_s = span.stop();
    }
    values[kGenerate.name] += generate_s;
    values[kEvents.name] += static_cast<double>(counter.events());

    analysis::StreamAnalysis stream;
    {
      nb::ScopedSpan span(tracer, "metrics.ingest", label);
      stream = analysis::analyze_stream(
          [&](trace::EventSink& sink) { gen.generate_into(entry, run.seed, sink); },
          entry, run, /*want_full_matrix=*/true);
      const double ingest_s = span.stop();
      values[kIngest.name] += ingest_s;
      values[kAccumulateSelf.name] += ingest_s - generate_s;
    }
    const metrics::TrafficMatrix& matrix = *stream.full_matrix;
    values[kNonzeroPairs.name] += static_cast<double>(matrix.nonzero_pairs());
    const int ranks = stream.row.stats.num_ranks;
    const Seconds duration = stream.row.stats.duration;

    topology::TopologySet set;
    {
      nb::ScopedSpan span(tracer, "topology.build", label);
      set = topology::topologies_for(ranks);
      values[kTopologyBuild.name] += span.stop();
    }
    // Without congestion windows the aggregate is routed as one window.
    metrics::CongestionOptions congestion = run.congestion;
    std::span<const metrics::TrafficMatrix> windows(&matrix, 1);
    Seconds window_seconds = duration;
    if (stream.windowed != nullptr) {
      windows = stream.windowed->windows;
      window_seconds = stream.windowed->window_seconds;
    } else {
      congestion.windows = 1;
    }
    for (const auto& window : windows) {
      values[kWindowPairs.name] += static_cast<double>(window.nonzero_pairs());
    }

    analysis::ExperimentRow row = stream.row;
    const auto all = set.all();
    for (std::size_t t = 0; t < all.size(); ++t) {
      const topology::Topology& topo = *all[t];
      // Rows on the same fabric share a plan, as in the engine, so the
      // replay times about as many builds as a sweep makes. The counts
      // come from the engine's own SweepStats, not from this map.
      auto& plan = plans[topo.name() + " " + topo.config_string() + "#" +
                         std::to_string(ranks)];
      if (plan == nullptr) {
        nb::ScopedSpan span(tracer, "topology.plan_build", label);
        plan = topology::RoutePlan::build(topo, run.routing, ranks);
        values[kPlanBuild.name] += span.stop();
      }
      {
        nb::ScopedSpan span(tracer, "analysis.cell", label + " " + topo.name());
        row.topologies[t] = analysis::analyze_topology(
            matrix, topo, ranks, duration, run, plan.get(), stream.windowed.get());
        values[kCell.name] += span.stop();
      }
      replay_kernels(tracer, label, matrix, topo, *plan, ranks, duration, windows,
                     window_seconds, congestion, threads, row.topologies[t],
                     values, failures);
    }
    rows.push_back(std::move(row));
    {
      // The engine frees a row's matrices in its jobs, on the clock.
      nb::ScopedSpan span(tracer, "analysis.release", label);
      stream = {};
      set = {};
      values[kRelease.name] += span.stop();
    }
  }
  derive_ratios(values, run.congestion.enabled());
  {
    nb::ScopedSpan span(tracer, "analysis.csv");
    (void)table3_csv(rows);
    values[kCsv.name] += span.stop();
  }
  return rows;
}

/// Store then load every row through a fresh ResultCache (the engine's
/// cache write and read paths, timed one call at a time).
void replay_cache(nb::Tracer& tracer, const std::vector<analysis::ExperimentRow>& rows,
                  const analysis::RunOptions& run, const std::string& dir,
                  LayerValues& values, std::vector<std::string>& failures) {
  engine::ResultCache cache(dir);
  for (const auto& row : rows) {
    const auto key = engine::result_cache_key(row.entry, run);
    nb::ScopedSpan span(tracer, "engine.cache_store", key.label);
    cache.store(key, row);
    values[kCacheStore.name] += span.stop();
  }
  for (const auto& row : rows) {
    const auto key = engine::result_cache_key(row.entry, run);
    nb::ScopedSpan span(tracer, "engine.cache_load", key.label);
    const auto loaded = cache.load(key);
    values[kCacheLoad.name] += span.stop();
    if (!loaded || table3_csv({*loaded}) != table3_csv({row})) {
      failures.push_back(key.label + ": cache round trip changed the row");
    }
  }
  fs::remove_all(dir);
}

/// Job times of one traced engine sweep, per phase and per row, each
/// job also recorded as a span. A row's job chain (generate, slowest
/// topology job, finalize) is its share of the critical path.
class JobTimes final : public engine::EngineObserver {
 public:
  explicit JobTimes(nb::Tracer& tracer) : tracer_(tracer) {}

  void on_job_finished(const engine::JobEvent& job, Seconds elapsed) override {
    tracer_.record("engine." + job.phase, job.label, elapsed);
    std::lock_guard<std::mutex> lock(mutex_);
    phase_s_[job.phase] += elapsed;
    RowJobs& row = rows_[job.label];
    if (job.phase == "topology") {
      row.slowest_topology = std::max(row.slowest_topology, elapsed);
    } else {
      row.serial += elapsed;
    }
  }

  /// The longest row job chain.
  [[nodiscard]] double critical_path_s() const {
    std::lock_guard<std::mutex> lock(mutex_);
    double longest = 0.0;
    for (const auto& [label, row] : rows_) {
      longest = std::max(longest, row.serial + row.slowest_topology);
    }
    return longest;
  }
  [[nodiscard]] double phase(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = phase_s_.find(name);
    return it == phase_s_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    for (const auto& [name, seconds] : phase_s_) sum += seconds;
    return sum;
  }

 private:
  struct RowJobs {
    double serial = 0.0;  ///< generate + finalize
    double slowest_topology = 0.0;
  };
  nb::Tracer& tracer_;
  mutable std::mutex mutex_;
  std::map<std::string, double> phase_s_;
  std::map<std::string, RowJobs> rows_;
};

/// One traced engine sweep at `jobs` workers in the current process.
Json engine_child(const Workload& workload, const Config& config, int jobs,
                  const std::string& dir) {
  nb::Tracer tracer;
  engine::SweepOptions options;
  options.run = sweep_run_options(workload, config);
  options.jobs = jobs;
  if (workload.cache) options.cache_dir = dir + "/cache";
  JobTimes recorder(tracer);
  options.observer = &recorder;
  engine::SweepEngine sweep(options);
  const auto entries = sweep_entries(workload, config);
  std::vector<analysis::ExperimentRow> rows;
  double wall = 0.0;
  {
    nb::ScopedSpan span(tracer, "engine.sweep", std::to_string(jobs) + " workers");
    rows = sweep.run_rows(entries);
    wall = span.stop();
  }
  fs::remove_all(dir);
  Json out = Json::object();
  out.set("wall_s", wall);
  out.set("jobs_run", sweep.stats().jobs_run);
  out.set("plans_built", sweep.stats().plans_built);
  out.set("generate_s", recorder.phase("generate"));
  out.set("topology_s", recorder.phase("topology"));
  out.set("finalize_s", recorder.phase("finalize"));
  out.set("job_total_s", recorder.total());
  out.set("critical_path_s", recorder.critical_path_s());
  out.set("table3", hex64(fnv(table3_csv(rows))));
  out.set("spans", tracer.to_json());
  return out;
}

/// Fork `body`, merge its {"values","spans","failures"} into `result`.
bool run_traced_child(nb::WorkloadResult& result, const std::string& process,
                      const std::function<Json()>& body, Json& out,
                      std::vector<std::pair<std::string, Json>>& spans) {
  auto child = spawn(body);
  child->finish();
  ++result.attempted;
  if (!child->ok()) {
    result.fail(process + " child: " + child->error());
    return false;
  }
  out = child->result();
  if (const Json* list = out.find("failures")) {
    for (const Json& failure : list->as_array()) result.fail(failure.as_string());
  }
  if (const Json* s = out.find("spans")) spans.emplace_back(process, *s);
  return true;
}

/// Spans of several children, kept per child process for the trace file.
Json spans_json(const std::vector<std::pair<std::string, Json>>& spans) {
  Json out = Json::array();
  for (const auto& [process, list] : spans) {
    Json entry = Json::object();
    entry.set("process", process);
    entry.set("spans", list);
    out.push(std::move(entry));
  }
  return out;
}

void add_layer_values(nb::WorkloadResult& result, const Json& values) {
  const auto add_known = [&](const std::vector<const MetricSpec*>& specs) {
    for (const MetricSpec* spec : specs) {
      if (const Json* v = values.find(spec->name)) result.add(*spec, v->as_number());
    }
  };
  add_known(kPerLayer);
  add_known(kWorkloadLayer);
}

nb::WorkloadResult traced_sweep(const Workload& workload, const Config& config) {
  nb::WorkloadResult result;
  result.name = workload.name;
  std::vector<std::pair<std::string, Json>> spans;

  Json replay;
  const std::string replay_dir = config.scratch + "/" + workload.name + "-replay";
  if (!run_traced_child(result, "replay", [&] {
        nb::Tracer tracer;
        LayerValues values;
        std::vector<std::string> failures;
        const auto run = sweep_run_options(workload, config);
        const auto rows = replay_rows(tracer, sweep_entries(workload, config), run,
                                      config.nproc, values, failures);
        if (workload.cache) replay_cache(tracer, rows, run, replay_dir, values, failures);
        Json out = traced_output(tracer, values, failures);
        out.set("table3", hex64(fnv(table3_csv(rows))));
        return out;
      }, replay, spans)) {
    return result;
  }
  Json single;
  Json many;
  if (!run_traced_child(result, "engine-1w", [&] {
        return engine_child(workload, config, 1, config.scratch + "/" +
                                                     workload.name + "-1w");
      }, single, spans) ||
      !run_traced_child(result, "engine-nw", [&] {
        return engine_child(workload, config, config.nproc,
                            config.scratch + "/" + workload.name + "-nw");
      }, many, spans)) {
    return result;
  }
  const std::string digest = replay.get_string("table3");
  if (single.get_string("table3") != digest || many.get_string("table3") != digest) {
    result.fail("serial replay and engine sweeps disagree on the Table 3 CSV");
  }

  Json values = replay.at("values");
  const auto value = [&values](const MetricSpec& spec) {
    return values.get_number(spec.name);
  };
  values.set(kGenerateJobs.name, many.get_number("generate_s"));
  values.set(kTopologyJobs.name, many.get_number("topology_s"));
  values.set(kFinalizeJobs.name, many.get_number("finalize_s"));
  values.set(kJobsRun.name, many.get_number("jobs_run"));
  values.set(kPlansBuilt.name, single.get_number("plans_built"));
  values.set(kBusyRatio.name, many.get_number("job_total_s") /
                                  (many.get_number("wall_s") * config.nproc));
  values.set(kJobInflation.name,
             many.get_number("job_total_s") / single.get_number("job_total_s"));
  values.set(kCriticalPath.name, single.get_number("critical_path_s"));
  // The serial stages a 1-worker sweep runs, measured one by one.
  const double attributed = value(kIngest) + value(kTopologyBuild) +
                            value(kPlanBuild) + value(kCell) + value(kCacheStore) +
                            value(kRelease);
  values.set(kUnattributed.name, single.get_number("wall_s") - attributed);
  values.set(kAttributedRatio.name, attributed / single.get_number("wall_s"));
  add_layer_values(result, values);
  result.spans = spans_json(spans);
  return result;
}

// ---- output ---------------------------------------------------------------------------------

Json environment_json(const Config& config, bool traced) {
  Json env = Json::object();
  env.set("nproc", config.nproc);
  env.set("compiler", NETLOC_BENCH_COMPILER);
  env.set("build_type", NETLOC_BENCH_BUILD_TYPE);
  env.set("git_sha", NETLOC_BENCH_GIT_SHA);
  env.set("seed", std::to_string(config.seed));
  env.set("seconds", config.seconds);
  env.set("quick", config.quick);
  env.set("trace", traced);
  return env;
}

Json results_json(const Config& config, bool traced,
                  const std::vector<nb::WorkloadResult>& results) {
  Json workloads_out = Json::array();
  for (const auto& r : results) {
    Json w = Json::object();
    w.set("name", r.name);
    w.set("correct", r.failed == 0);
    w.set("attempted", static_cast<double>(r.attempted));
    w.set("failed", static_cast<double>(r.failed));
    w.set("failures", strings_json(r.failures));
    Json metrics_out = Json::array();
    for (const auto& m : r.measurements) {
      const bool end_to_end =
          std::find(kEndToEnd.begin(), kEndToEnd.end(), m.spec) != kEndToEnd.end();
      metrics_out.push(nb::measurement_json(m, end_to_end));
    }
    w.set("metrics", std::move(metrics_out));
    workloads_out.push(std::move(w));
  }
  Json out = Json::object();
  out.set("schema", "netloc_bench/1");
  out.set("env", environment_json(config, traced));
  out.set("workloads", std::move(workloads_out));
  return out;
}

std::string format_value(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

/// The summary line: every metric of the requested kind, by name. With
/// several workloads the names are prefixed "workload/".
Json summary_json(const std::vector<nb::WorkloadResult>& results, bool traced) {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Json metrics_out = Json::object();
  const auto& wanted = traced ? kPerLayer : kEndToEnd;
  for (const auto& r : results) {
    attempted += r.attempted;
    failed += r.failed;
    for (const MetricSpec* spec : wanted) {
      for (const auto& m : r.measurements) {
        if (m.spec != spec) continue;
        Json entry = Json::object();
        entry.set("value", nb::quartiles(m.samples).median);
        entry.set("unit", spec->unit);
        metrics_out.set(results.size() == 1 ? std::string(spec->name)
                                            : r.name + "/" + spec->name,
                        std::move(entry));
      }
    }
  }
  Json out = Json::object();
  out.set("correct", failed == 0);
  out.set("attempted", static_cast<double>(std::max<std::int64_t>(attempted, 1)));
  out.set("failed", static_cast<double>(failed));
  out.set("metrics", std::move(metrics_out));
  return out;
}

/// Every metric the run must report is present and finite.
void check_schema(nb::WorkloadResult& result, bool traced) {
  for (const MetricSpec* spec : traced ? kPerLayer : kEndToEnd) {
    const auto it = std::find_if(result.measurements.begin(), result.measurements.end(),
                                 [spec](const nb::Measurement& m) { return m.spec == spec; });
    if (it == result.measurements.end() || it->samples.empty()) {
      result.fail(std::string("metric ") + spec->name + " missing");
      continue;
    }
    for (const double v : it->samples) {
      if (!std::isfinite(v)) result.fail(std::string("metric ") + spec->name + " not finite");
    }
  }
}

Json read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

/// 0 when BENCHMARK.json at `path` lists exactly this binary's
/// workloads and metric tables (names, units, directions, bounds).
int check_manifest(const std::string& path) {
  const Json manifest = read_json_file(path);
  int problems = 0;
  const auto expect = [&](const char* section,
                          const std::vector<const MetricSpec*>& specs, bool bounded) {
    const auto& list = manifest.at(section).as_array();
    if (list.size() != specs.size()) {
      std::cerr << "manifest: " << section << " lists " << list.size()
                << " metrics, the benchmark has " << specs.size() << "\n";
      ++problems;
    }
    for (std::size_t i = 0; i < std::min(list.size(), specs.size()); ++i) {
      const MetricSpec& spec = *specs[i];
      const Json& m = list[i];
      if (m.get_string("name") != spec.name || m.get_string("unit") != spec.unit ||
          m.get_string("better") != (spec.lower_is_better ? "lower" : "higher") ||
          (bounded && m.get_number("bound") != spec.bound)) {
        std::cerr << "manifest: " << section << "[" << i << "] does not match "
                  << spec.name << "\n";
        ++problems;
      }
    }
  };
  expect("end_to_end", kEndToEnd, true);
  expect("per_layer", kPerLayer, false);
  const auto& listed = manifest.at("workloads").as_array();
  if (listed.size() != all_workloads().size()) {
    std::cerr << "manifest: lists " << listed.size() << " workloads\n";
    ++problems;
  }
  for (std::size_t i = 0; i < std::min(listed.size(), all_workloads().size()); ++i) {
    if (listed[i].get_string("name") != all_workloads()[i].name) {
      std::cerr << "manifest: workload " << i << " is not "
                << all_workloads()[i].name << "\n";
      ++problems;
    }
  }
  return problems == 0 ? 0 : 1;
}

void write_json_file(const std::string& path, const Json& value) {
  std::ofstream out(path);
  out << value.dump() << "\n";
  if (!out) throw Error("cannot write " + path);
}

/// Print the committed-digest table lines for the selected workloads.
int print_digests(const std::vector<const Workload*>& selected, Config config) {
  std::vector<std::uint64_t> seeds = {workloads::kDefaultSeed};
  if (!config.quick) seeds.push_back(kHoldoutSeed);
  int status = 0;
  for (const std::uint64_t seed : seeds) {
    config.seed = seed;
    for (const Workload* workload : selected) {
      auto child = spawn([&] { return sweep_child(*workload, config, config.nproc); });
      child->finish();
      if (!child->ok()) {
        std::cerr << workload->name << ": " << child->error() << "\n";
        status = 1;
        continue;
      }
      const Json& digests = child->result().at("digests");
      for (const auto& [key, value] : digests.as_object()) {
        std::cout << "    {\"" << workload->name << "\", "
                  << (config.quick ? "true" : "false") << ", 0x" << std::hex
                  << seed << std::dec << "ull, \"" << key << "\", 0x"
                  << value.as_string() << "ull},\n";
      }
    }
  }
  return status;
}

int usage() {
  std::cerr
      << "usage: netloc_bench [--workload W] [--seed S] [--seconds T]\n"
         "                    [--trace [0|1]] [--trace-out run.json]\n"
         "                    [--out results.json] [--quick] [--manifest F]\n"
         "       netloc_bench compare parent.json[,...] change.json[,...]\n"
         "       netloc_bench --print-digests [--quick] [--workload W]\n"
         "workloads:";
  for (const auto& w : all_workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

int run_main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "compare") {
    if (argc != 4) return usage();
    // Each side: one result file, or several comma-separated runs.
    const auto side = [](const std::string& list) {
      std::vector<Json> runs;
      std::stringstream paths(list);
      for (std::string path; std::getline(paths, path, ',');) {
        runs.push_back(read_json_file(path));
      }
      return runs;
    };
    return nb::compare_results(side(argv[2]), side(argv[3]));
  }
  Config config;
  config.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::string workload_name;
  std::string out_path;
  std::string trace_out;
  std::string manifest;
  bool traced = false;
  bool digests = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_name = value();
    } else if (arg == "--seed") {
      config.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      config.seconds = std::stod(value());
    } else if (arg == "--trace") {
      traced = true;
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0)) {
        traced = std::strcmp(argv[++i], "1") == 0;
      }
    } else if (arg == "--trace-out") {
      trace_out = value();
      traced = true;
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--quick") {
      config.quick = true;
    } else if (arg == "--manifest") {
      manifest = value();
    } else if (arg == "--print-digests") {
      digests = true;
    } else {
      std::cerr << "netloc_bench: unknown argument " << arg << "\n";
      return usage();
    }
  }
  std::vector<const Workload*> selected;
  for (const auto& w : all_workloads()) {
    if (workload_name.empty() || workload_name == "all" || w.name == workload_name) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) {
    std::cerr << "netloc_bench: unknown workload " << workload_name << "\n";
    return usage();
  }
#ifndef NDEBUG
  if (!config.quick) {
    std::cerr << "netloc_bench: timed runs need an optimized build with NDEBUG "
                 "(configure with -DCMAKE_BUILD_TYPE=Release); --quick works in "
                 "any build\n";
    return 2;
  }
#endif
  if (!manifest.empty() && check_manifest(manifest) != 0) return 1;

  config.scratch = ".netloc_bench_run/" + std::to_string(::getpid());
  fs::create_directories(config.scratch);
  struct ScratchGuard {
    std::string dir;
    ~ScratchGuard() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
      fs::remove(fs::path(dir).parent_path(), ignored);  // Only if empty.
    }
  } guard{config.scratch};

  if (digests) return print_digests(selected, config);

  std::vector<nb::WorkloadResult> results;
  for (const Workload* workload : selected) {
    const auto begin = Clock::now();
    nb::WorkloadResult r =
        traced ? traced_sweep(*workload, config) : timed_sweep(*workload, config);
    if (r.failed == 0) check_schema(r, traced);
    std::cerr << "netloc_bench: " << workload->name << " "
              << (traced ? "traced" : "timed") << " run took "
              << format_value(seconds_since(begin)) << " s\n";
    for (const auto& failure : r.failures) {
      std::cerr << "FAIL " << workload->name << ": " << failure << "\n";
    }
    for (const auto& m : r.measurements) {
      std::cout << workload->name << " " << m.spec->name << " "
                << format_value(nb::quartiles(m.samples).median) << " "
                << m.spec->unit << "\n";
    }
    results.push_back(std::move(r));
  }
  if (!out_path.empty()) write_json_file(out_path, results_json(config, traced, results));
  if (!trace_out.empty()) {
    std::vector<std::pair<std::string, Json>> runs;
    for (const auto& r : results) {
      if (!r.spans.is_array()) continue;
      for (const Json& child : r.spans.as_array()) {
        runs.emplace_back(r.name + "/" + child.get_string("process"),
                          child.at("spans"));
      }
    }
    write_json_file(trace_out, nb::chrome_trace(runs));
  }
  const Json summary = summary_json(results, traced);
  std::cout << summary.dump() << std::endl;
  return summary.get_bool("correct") ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "netloc_bench: " << e.what() << "\n";
    return 2;
  }
}
