// The benchmark binary. One invocation runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--source-id <id>] [--work-dir <dir>] [--smoke]
//             [--corrupt-cover]
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer
// ones (README.md lists both). Every cover a run produces is verified
// outside its timed region; the last stdout line is the JSON result and
// the exit code is 0 only when every check passed.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "offline/greedy.h"
#include "perfbench.h"
#include "setsystem/binary_io.h"
#include "setsystem/cover.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using streamcover::CoverageServer;
using streamcover::SetSystem;
using streamcover::WallTimer;

/// An end-to-end run sets up at least 3 times and until 2 s went into
/// setups; setup_s is their median. Small instances get more repeats.
constexpr size_t kMinSetups = 3;
constexpr double kSetupBudgetS = 2.0;
/// Timed solves per run, at least, whatever --seconds says.
constexpr size_t kMinSolves = 3;
/// Requests per serve run, at least: p99 then has 11 samples beyond it.
constexpr size_t kMinRequests = 1100;
constexpr uint32_t kServeWorkers = 2;
constexpr uint32_t kServeClients = 2;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
  bool corrupt = false;
  std::string source_id = "unknown";
  std::string work_dir = ".bench_build/perfbench";
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (flag == "--corrupt-cover") {
      args->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--source-id") {
      args->source_id = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    *error = "need --workload, --seed, --seconds > 0 and --trace 0|1";
    return false;
  }
  return true;
}

/// Every checked output of the run, for attempted/failed and ok_share.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  double ok_share() const {
    return attempted == 0 ? 0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

/// Metric name -> {"value", "unit"}, in insertion order.
struct Metrics {
  JsonValue values = JsonValue::Object();

  void Put(const std::string& name, double value, const char* unit) {
    JsonValue metric = JsonValue::Object();
    metric.Set("value", std::isfinite(value) ? value : 0.0);
    metric.Set("unit", unit);
    values.Set(name, std::move(metric));
  }
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// One solve, and whether its output passed the independent checks.
struct CheckedSolve {
  RunResult result;
  double seconds = 0;
  double verify_s = 0;
  bool ok = false;
};

/// RunSolver under a span, then — outside the timed region — a check of
/// the run's status and of its cover by an uncounted scan of the file
/// (Instance::VerifyCover), and of the cover size against the bound.
CheckedSolve RunChecked(const std::string& solver, Instance& instance,
                        const RunOptions& options, const PlantedSpec& spec,
                        bool corrupt, Tracer& tracer, const char* span_name) {
  CheckedSolve solve;
  const uint64_t run = tracer.NextRun();
  Span span(tracer, span_name, 0, run);
  solve.result = streamcover::RunSolver(solver, instance, options);
  solve.seconds = span.End();

  streamcover::Cover cover = solve.result.cover;
  if (corrupt && !cover.set_ids.empty()) cover.set_ids.pop_back();
  const bool in_range =
      std::all_of(cover.set_ids.begin(), cover.set_ids.end(),
                  [&](uint32_t id) { return id < instance.num_sets(); });
  Span verify(tracer, "Instance::VerifyCover", 0, run);
  const bool covers = solve.result.ok() && solve.result.success && in_range &&
                      instance.VerifyCover(cover);
  solve.verify_s = verify.End();
  solve.ok = covers && Ratio(static_cast<double>(cover.size()), spec.k) <=
                           CoverRatioBound(solver, spec.n);
  return solve;
}

/// True when two runs agree on every exact accounting column.
bool SameAccounting(const RunResult& a, const RunResult& b) {
  return a.passes == b.passes && a.space_words == b.space_words &&
         a.cover.set_ids == b.cover.set_ids &&
         a.physical_scans == b.physical_scans &&
         a.sequential_scans == b.sequential_scans;
}

std::unique_ptr<CoverageServer> StartServer() {
  streamcover::ServerOptions options;
  options.workers = kServeWorkers;
  auto server = std::make_unique<CoverageServer>(options);
  server->Start();
  return server;
}

/// What a checked serve load yields.
struct ServeSummary {
  std::vector<double> latency_ms;
  std::vector<double> run_ms;
  std::vector<double> overhead_ms;
  std::vector<std::vector<double>> per_solver_ms;  // by ServeMix() index
  ServeOutcome first_iter;  // accounting of the first iter response
  double rps = 0;
};

ServeSummary CheckServeLoad(const ServeLoad& load, const SetSystem& system,
                            const PlantedSpec& spec, bool corrupt,
                            Tally& tally) {
  const std::vector<std::string>& mix = ServeMix();
  ServeSummary summary;
  summary.per_solver_ms.resize(mix.size());
  bool have_iter = false;
  for (const ServeSample& sample : load.samples) {
    ServeOutcome outcome =
        CheckServeResponse(sample, system, spec.k, corrupt);
    if (sample.solver == "iter" && outcome.ok) {
      if (!have_iter) {
        summary.first_iter = outcome;
        have_iter = true;
      }
      // The same request on the same file must account identically.
      outcome.ok = outcome.passes == summary.first_iter.passes &&
                   outcome.space_words == summary.first_iter.space_words &&
                   outcome.cover_size == summary.first_iter.cover_size;
    }
    tally.Check(outcome.ok, sample.solver + " response: " +
                                sample.response.substr(0, 200));
    summary.latency_ms.push_back(sample.latency_ms);
    summary.run_ms.push_back(outcome.run_ms);
    summary.overhead_ms.push_back(sample.latency_ms - outcome.run_ms);
    const size_t index =
        std::find(mix.begin(), mix.end(), sample.solver) - mix.begin();
    if (index < mix.size()) {
      summary.per_solver_ms[index].push_back(sample.latency_ms);
    }
  }
  summary.rps = Ratio(static_cast<double>(load.samples.size()), load.seconds);
  return summary;
}

double ToMiB(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

class Bench {
 public:
  Bench(const Args& args, Workload workload)
      : args_(args), workload_(std::move(workload)), tracer_(args.trace) {}

  int Run();

 private:
  bool Setup();
  void SolveEndToEnd();
  void ServeEndToEnd();
  void Layers();
  void Fail(const std::string& what) { tally_.Check(false, what); }

  const Args& args_;
  const Workload workload_;
  Tracer tracer_;
  Tally tally_;
  Metrics metrics_;
  JsonValue info_ = JsonValue::Object();

  std::optional<Prepared> prepared_;
  std::unique_ptr<CoverageServer> server_;
  /// serve_disk: an independent in-memory load of the served file, which
  /// every response's cover is checked against.
  std::optional<SetSystem> served_;
  std::vector<double> setup_s_;
  double preload_s_ = 0;
  bool rusage_fallback_ = false;
};

bool Bench::Setup() {
  const size_t min_setups = args_.trace ? 1 : kMinSetups;
  const double budget = args_.trace ? 0 : kSetupBudgetS;
  double total = 0;
  while (setup_s_.size() < min_setups || total < budget) {
    server_.reset();
    prepared_.reset();
    std::string error;
    Span setup(tracer_, "setup");
    prepared_ = Prepare(workload_.instance, args_.seed, tracer_, &error);
    if (!prepared_.has_value()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", error.c_str());
      return false;
    }
    if (workload_.serve) {
      server_ = StartServer();
      Span preload(tracer_, "CoverageServer::Preload");
      const bool loaded = server_->Preload(prepared_->file->path(), &error);
      preload_s_ = preload.End();
      if (!loaded) {
        std::fprintf(stderr, "perfbench: preload failed: %s\n",
                     error.c_str());
        return false;
      }
    }
    setup_s_.push_back(setup.End());
    total += setup_s_.back();
  }
  if (workload_.serve) {
    std::string error;
    served_ = streamcover::LoadBinarySetSystemFromFile(
        prepared_->file->path(), &error);
    if (!served_.has_value()) {
      std::fprintf(stderr, "perfbench: loading the served file: %s\n",
                   error.c_str());
      return false;
    }
  }
  JsonValue dir = JsonValue::Object();
  dir.Set("fs_type", prepared_->file->fs_type());
  dir.Set("path", prepared_->file->path());
  dir.Set("bytes", prepared_->file->bytes());
  dir.Set("nnz", prepared_->nnz);
  info_.Set("instance_file", std::move(dir));
  return true;
}

void Bench::SolveEndToEnd() {
  Instance& instance = *prepared_->instance;
  const RunOptions options = workload_.Options();
  CheckedSolve warm = RunChecked(workload_.solver, instance, options,
                                 workload_.instance, args_.corrupt, tracer_,
                                 "RunSolver");
  tally_.Check(warm.ok, "warm-up " + workload_.solver + " solve " +
                            warm.result.error);
  std::vector<double> seconds;
  WallTimer window;
  while (seconds.size() < kMinSolves ||
         window.ElapsedSeconds() < args_.seconds) {
    CheckedSolve solve = RunChecked(workload_.solver, instance, options,
                                    workload_.instance, args_.corrupt,
                                    tracer_, "RunSolver");
    tally_.Check(solve.ok && SameAccounting(solve.result, warm.result),
                 workload_.solver + " solve " + solve.result.error);
    seconds.push_back(solve.seconds);
  }
  const RunResult& result = warm.result;
  metrics_.Put("solve_s", Median(seconds), "s");
  metrics_.Put("peak_rss_mb", ToMiB(PeakRssBytes(rusage_fallback_)), "MiB");
  metrics_.Put("space_words", static_cast<double>(result.space_words),
               "words");
  metrics_.Put("passes", static_cast<double>(result.passes), "scans");
  metrics_.Put("cover_ratio",
               Ratio(static_cast<double>(result.cover.size()),
                     workload_.instance.k),
               "ratio");
  metrics_.Put("ok_share", tally_.ok_share(), "ratio");
  // On a solve workload a request is one RunSolver call from a single
  // closed-loop client. A run holds too few of them (8 to 50) for a 99th
  // percentile, and even the upper quartile moved 28% between runs with
  // host noise, so the tail repeats the median.
  metrics_.Put("serve_rps", Ratio(1, Median(seconds)), "req/s");
  metrics_.Put("serve_p50_ms", Median(seconds) * 1e3, "ms");
  metrics_.Put("serve_p99_ms", Median(seconds) * 1e3, "ms");
}

void Bench::ServeEndToEnd() {
  const std::string& path = prepared_->file->path();
  const ServeLoad warm = RunServeLoad(*server_, path, kServeClients,
                                      args_.seed, 0, 0, 1, tracer_);
  CheckServeLoad(warm, *served_, workload_.instance, args_.corrupt, tally_);
  const ServeLoad load =
      RunServeLoad(*server_, path, kServeClients, args_.seed, args_.seconds,
                   args_.smoke ? 30 : kMinRequests, 0, tracer_);
  const ServeSummary summary = CheckServeLoad(
      load, *served_, workload_.instance, args_.corrupt, tally_);
  // A serve request's RunSolver time is the duration_ms it reports.
  metrics_.Put("solve_s", Median(summary.run_ms) / 1e3, "s");
  metrics_.Put("peak_rss_mb", ToMiB(PeakRssBytes(rusage_fallback_)), "MiB");
  metrics_.Put("space_words",
               static_cast<double>(summary.first_iter.space_words), "words");
  metrics_.Put("passes", static_cast<double>(summary.first_iter.passes),
               "scans");
  metrics_.Put("cover_ratio",
               Ratio(static_cast<double>(summary.first_iter.cover_size),
                     workload_.instance.k),
               "ratio");
  metrics_.Put("ok_share", tally_.ok_share(), "ratio");
  metrics_.Put("serve_rps", summary.rps, "req/s");
  metrics_.Put("serve_p50_ms", Median(summary.latency_ms), "ms");
  metrics_.Put("serve_p99_ms", Percentile(summary.latency_ms, 99), "ms");
}

void Bench::Layers() {
  Instance& instance = *prepared_->instance;
  const std::string& path = prepared_->file->path();
  const PlantedSpec& spec = workload_.instance;
  const RunOptions options = workload_.Options();
  const double file_bytes = static_cast<double>(prepared_->file->bytes());
  std::string error;

  metrics_.Put("setsystem.generate_s", prepared_->generate_s, "s");
  metrics_.Put("core.open_s", prepared_->open_s, "s");

  // Solves: the cold one, then traced and untraced ones alternating.
  CheckedSolve cold = RunChecked(workload_.solver, instance, options, spec,
                                 args_.corrupt, tracer_, "RunSolver (cold)");
  tally_.Check(cold.ok, "cold " + workload_.solver + " solve " +
                            cold.result.error);
  const RunResult& result = cold.result;
  const double scans = static_cast<double>(result.physical_scans);
  Tracer untraced(false);
  std::vector<double> traced_s, untraced_s, verify_s = {cold.verify_s};
  std::vector<double> decode_probes, decode_shares;
  const double budget = args_.seconds / (workload_.serve ? 4 : 2);
  WallTimer window;
  while (untraced_s.size() < 2 || window.ElapsedSeconds() < budget) {
    const bool traced = traced_s.size() <= untraced_s.size();
    CheckedSolve solve =
        RunChecked(workload_.solver, instance, options, spec, args_.corrupt,
                   traced ? tracer_ : untraced, "RunSolver");
    tally_.Check(solve.ok && SameAccounting(solve.result, cold.result),
                 workload_.solver + " solve " + solve.result.error);
    (traced ? traced_s : untraced_s).push_back(solve.seconds);
    verify_s.push_back(solve.verify_s);
    if (traced) continue;
    // The stream layer is probed right after each untraced solve, so the
    // decode share compares two timings from the same phase of the
    // host's load.
    std::optional<double> decode =
        ProbeDecode(path, workload_, prepared_->nnz, tracer_, &error);
    if (!decode.has_value()) {
      Fail(error);
      break;
    }
    decode_probes.push_back(*decode);
    decode_shares.push_back(Ratio(scans * *decode, solve.seconds));
  }
  const double solve_s = Median(untraced_s);
  const double peak = static_cast<double>(PeakRssBytes(rusage_fallback_));

  // Stream layer.
  const double decode_s = Median(decode_probes);
  metrics_.Put("stream.decode_s", decode_s, "s");
  metrics_.Put("stream.decode_gbps", Ratio(file_bytes, decode_s) / 1e9,
               "GB/s");
  metrics_.Put("stream.decode_share", Median(decode_shares), "ratio");
  const uint32_t branches = static_cast<uint32_t>(std::max<double>(
      1, std::round(Ratio(static_cast<double>(result.sequential_scans),
                          static_cast<double>(result.passes)))));
  double round_s = 0;
  if (std::optional<double> r =
          ProbeDispatchRound(path, workload_, branches, tracer_, &error)) {
    round_s = *r;
  } else {
    Fail(error);
  }
  metrics_.Put("stream.dispatch_s", round_s - decode_s, "s");

  // In-memory layers, on an independent load of the file.
  std::optional<SetSystem> system;
  {
    Span load(tracer_, "LoadBinarySetSystemFromFile");
    system = streamcover::LoadBinarySetSystemFromFile(path, &error);
  }
  if (!system.has_value()) {
    Fail("loading the instance into memory: " + error);
    return;
  }
  KernelRates rates;
  if (std::optional<KernelRates> r =
          ProbeKernels(*system, args_.seed, tracer_, &error)) {
    rates = *r;
  } else {
    Fail(error);
  }
  metrics_.Put("cover_kernels.count_melem_s", rates.count, "Melem/s");
  metrics_.Put("cover_kernels.filter_melem_s", rates.filter, "Melem/s");
  metrics_.Put("cover_kernels.mark_melem_s", rates.mark, "Melem/s");

  Span greedy_span(tracer_, "GreedySolver::Solve");
  streamcover::OfflineResult greedy =
      streamcover::GreedySolver().Solve(*system);
  const double greedy_s = greedy_span.End();
  streamcover::Cover greedy_cover = greedy.cover;
  if (args_.corrupt && !greedy_cover.set_ids.empty()) {
    greedy_cover.set_ids.pop_back();
  }
  tally_.Check(streamcover::IsFullCover(*system, greedy_cover) &&
                   Ratio(static_cast<double>(greedy_cover.size()), spec.k) <=
                       CoverRatioBound("greedy", spec.n),
               "offline greedy cover");
  metrics_.Put("offline.greedy_s", greedy_s, "s");
  metrics_.Put("offline.sets_touched_per_pick",
               Ratio(static_cast<double>(greedy.sets_touched),
                     static_cast<double>(greedy.cover.size())),
               "ratio");
  metrics_.Put("offline.gain_updates", static_cast<double>(greedy.gain_updates),
               "count");

  metrics_.Put("core.projection_words_peak",
               static_cast<double>(result.projection_words_peak), "words");
  metrics_.Put("core.rss_per_space_word",
               Ratio(peak - file_bytes,
                     static_cast<double>(result.space_words) * 8),
               "ratio");
  metrics_.Put("core.physical_scans",
               static_cast<double>(result.physical_scans), "count");
  metrics_.Put("core.sequential_scans",
               static_cast<double>(result.sequential_scans), "count");
  metrics_.Put("core.first_solve_s", cold.seconds, "s");
  metrics_.Put("core.verify_s", Median(verify_s), "s");

  // Shard layer: the workload's own solve on greedi_disk, elsewhere one
  // solve with greedi_disk's options on this workload's instance.
  RunResult shard_run = result;
  if (workload_.solver != "sharded_greedi") {
    const Workload greedi = *FindWorkload("greedi_disk", args_.smoke);
    CheckedSolve probe =
        RunChecked(greedi.solver, instance, greedi.Options(), spec,
                   args_.corrupt, tracer_, "RunSolver (shard probe)");
    tally_.Check(probe.ok, "shard probe solve " + probe.result.error);
    shard_run = probe.result;
  }
  uint64_t work = 0, work_max = 0, candidates = 0;
  for (const streamcover::ShardStat& shard : shard_run.shard_stats) {
    work += shard.work_items;
    work_max = std::max(work_max, shard.work_items);
    candidates += shard.candidates;
  }
  metrics_.Put("shard.work_items", static_cast<double>(work), "count");
  metrics_.Put("shard.work_max_share",
               Ratio(static_cast<double>(work_max), static_cast<double>(work)),
               "ratio");
  metrics_.Put("shard.candidates", static_cast<double>(candidates), "count");
  metrics_.Put("shard.merge_ms", shard_run.merge_stats.duration_ms, "ms");

  // Serve layer: the workload itself on serve_disk, elsewhere one request
  // cycle per client against this workload's file.
  ServeLoad load;
  if (workload_.serve) {
    load = RunServeLoad(*server_, path, kServeClients, args_.seed,
                        args_.seconds, args_.smoke ? 30 : kMinRequests, 0,
                        tracer_);
  } else {
    server_ = StartServer();
    Span preload(tracer_, "CoverageServer::Preload");
    tally_.Check(server_->Preload(path, &error), "preload: " + error);
    preload_s_ = preload.End();
    load = RunServeLoad(*server_, path, kServeClients, args_.seed, 0, 0, 1,
                        tracer_);
  }
  const ServeSummary summary =
      CheckServeLoad(load, *system, spec, args_.corrupt, tally_);
  const JsonValue stats = server_->StatsJson();
  const JsonValue* cache = stats.Find("cache");
  metrics_.Put("serve.preload_s", preload_s_, "s");
  metrics_.Put("serve.run_p50_ms", Median(summary.run_ms), "ms");
  metrics_.Put("serve.overhead_p50_ms", Median(summary.overhead_ms), "ms");
  metrics_.Put("serve.overhead_p99_ms", Percentile(summary.overhead_ms, 99),
               "ms");
  metrics_.Put("serve.iter_p50_ms", Median(summary.per_solver_ms[0]), "ms");
  metrics_.Put("serve.greedi_p50_ms", Median(summary.per_solver_ms[1]), "ms");
  metrics_.Put("serve.progressive_p50_ms", Median(summary.per_solver_ms[2]),
               "ms");
  metrics_.Put("serve.cache_hits",
               cache == nullptr ? 0 : cache->At("hits").AsDouble(), "count");
  metrics_.Put("serve.cache_misses",
               cache == nullptr ? 0 : cache->At("misses").AsDouble(), "count");

  metrics_.Put("trace.solve_s", Median(traced_s), "s");
  metrics_.Put("trace.overhead_s", Median(traced_s) - solve_s, "s");
}

int Bench::Run() {
  info_.Set("host", HostStamp(args_.source_id));
  info_.Set("workload", workload_.name);
  info_.Set("seed", args_.seed);
  info_.Set("trace", args_.trace);
  info_.Set("smoke", args_.smoke);
  if (!Setup()) return 1;
  rusage_fallback_ = !ResetPeakRss();
  info_.Set("malloc", "M_MMAP_THRESHOLD pinned at 1 MiB");
  info_.Set("peak_rss_source",
            rusage_fallback_ ? "ru_maxrss (VmHWM reset refused; includes setup)"
                             : "VmHWM reset after setup");

  if (!args_.trace) {
    metrics_.Put("setup_s", Median(setup_s_), "s");
    if (workload_.serve) {
      ServeEndToEnd();
    } else {
      SolveEndToEnd();
    }
  } else {
    Layers();
    const std::string trace_path = args_.work_dir + "/trace-" +
                                   workload_.name + "-seed" +
                                   std::to_string(args_.seed) + ".json";
    tally_.Check(tracer_.WriteChromeTrace(trace_path),
                 "writing " + trace_path);
    info_.Set("trace_file", trace_path);
    info_.Set("spans", static_cast<uint64_t>(tracer_.size()));
  }
  server_.reset();

  JsonValue result = JsonValue::Object();
  result.Set("correct", tally_.failed == 0);
  result.Set("attempted", tally_.attempted);
  result.Set("failed", tally_.failed);
  result.Set("metrics", metrics_.values);
  std::printf("%s\n%s\n", info_.Dump(0).c_str(), result.Dump(0).c_str());
  std::fflush(stdout);
  return tally_.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // glibc raises its mmap threshold after each large free, so which
  // freed blocks go back to the kernel depends on allocation history:
  // iter_disk's peak RSS moved 978-1069 MiB between two seeds with the
  // dynamic threshold and 859-869 MiB with it pinned at 1 MiB. Pinning
  // at the 128 KiB default steadies it too, but its page faults slow
  // concurrent serve requests.
  mallopt(M_MMAP_THRESHOLD, 1024 * 1024);
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  std::optional<perfbench::Workload> workload =
      perfbench::FindWorkload(args.workload, args.smoke);
  if (!workload.has_value()) {
    std::fprintf(stderr,
                 "perfbench: unknown workload '%s' (iter_disk, scan_disk, "
                 "greedi_disk, serve_disk)\n",
                 args.workload.c_str());
    return 2;
  }
  return perfbench::Bench(args, std::move(*workload)).Run();
}
