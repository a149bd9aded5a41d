// Shared pieces of the benchmark binary: workload definitions, the
// RAM-backed instance files, process memory readings, the host stamp,
// the span recorder, and the serve load generator.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/solver_registry.h"
#include "serve/server.h"
#include "setsystem/set_system.h"
#include "util/json.h"

namespace perfbench {

using streamcover::Instance;
using streamcover::JsonValue;
using streamcover::RunOptions;
using streamcover::RunResult;

// --------------------------------------------------------------------------
// Workloads

/// A planted instance: k disjoint-ish blocks covering U plus noise sets of
/// size 1..noise_max. Its planted cover has k sets.
struct PlantedSpec {
  uint32_t n = 0;
  uint32_t m = 0;
  uint32_t k = 50;
  uint32_t noise_max = 64;
};

struct Workload {
  std::string name;
  PlantedSpec instance;
  /// The solve every solve-side measurement runs. For serve_disk it is
  /// the first solver of the request mix with default options.
  std::string solver;
  uint32_t threads = 1;
  uint32_t scan_threads = 1;
  uint32_t shards = 1;
  /// True for the workload whose requests go through CoverageServer.
  bool serve = false;

  /// Only the fields the workload names; every other field (kernel,
  /// seed, ...) stays at the library default.
  RunOptions Options() const {
    RunOptions options;
    options.threads = threads;
    options.scan_threads = scan_threads;
    options.shards = shards;
    return options;
  }
};

/// The workload called `name`, toy-sized when `smoke`; nullopt if unknown.
std::optional<Workload> FindWorkload(const std::string& name, bool smoke);

/// The serve request mix: each client cycles through it.
inline const std::vector<std::string>& ServeMix() {
  static const std::vector<std::string> mix = {"iter", "greedi",
                                               "progressive_greedy"};
  return mix;
}

/// Largest accepted cover size ÷ planted cover size: the greedy bound
/// H_n <= ln n + 1, divided by delta for iterSetCover (Thm 2.8's
/// O(rho/delta)).
double CoverRatioBound(const std::string& solver, uint32_t n);

// --------------------------------------------------------------------------
// Instance files

/// A generated SCOVRB01 file in RAM: an anonymous memfd reached through
/// /proc/self/fd, so nothing is written to any file system and the
/// bytes vanish with the process.
class InstanceFile {
 public:
  /// nullptr + *error when memfd_create fails.
  static std::unique_ptr<InstanceFile> Create(std::string* error);
  ~InstanceFile();
  InstanceFile(const InstanceFile&) = delete;
  InstanceFile& operator=(const InstanceFile&) = delete;

  const std::string& path() const { return path_; }
  /// "tmpfs", or fstatfs's raw magic in hex for any other file system.
  std::string fs_type() const;
  uint64_t bytes() const;

 private:
  InstanceFile() = default;
  int fd_ = -1;
  std::string path_;
};

/// Timings of writing one planted instance and opening it.
struct Prepared {
  std::unique_ptr<InstanceFile> file;
  std::optional<Instance> instance;
  uint64_t nnz = 0;
  double generate_s = 0;
  double open_s = 0;
};

class Tracer;

/// Streams the planted instance for `seed` into a fresh InstanceFile
/// (StreamPlanted -> BinarySetWriter) and opens it with
/// Instance::FromFile, under one span each. nullopt + *error on failure.
std::optional<Prepared> Prepare(const PlantedSpec& spec, uint64_t seed,
                                Tracer& tracer, std::string* error);

// --------------------------------------------------------------------------
// Process memory

/// Resets the kernel's VmHWM to the current RSS (writes 5 to
/// /proc/self/clear_refs). False when the write is refused.
bool ResetPeakRss();

/// VmHWM in bytes, or getrusage's ru_maxrss (never reset) when
/// `use_rusage` — the fallback when ResetPeakRss failed.
uint64_t PeakRssBytes(bool use_rusage);

// --------------------------------------------------------------------------
// Host stamp

JsonValue HostStamp(const std::string& source_id);

// --------------------------------------------------------------------------
// Statistics

/// Median of `values` (mean of the middle two for even sizes); 0 if empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile `p` in (0, 100]; 0 if empty.
double Percentile(std::vector<double> values, double p);

// --------------------------------------------------------------------------
// Spans

/// In-memory span log, written out as Chrome trace-event JSON at exit.
/// Disabled tracers record nothing. Record may be called from any
/// thread (serve clients record their requests).
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// A fresh span id (ids start at 1; 0 means "no span").
  uint64_t NextId();

  /// A fresh run id: the spans of one solve or one request share it.
  uint64_t NextRun() { return next_run_.fetch_add(1) + 1; }

  /// The innermost open Span on the calling thread (0 if none): the
  /// parent a new Span takes when none is given.
  static uint64_t CurrentSpan();

  /// Records a finished span. No-op when disabled.
  void Record(const std::string& name, Clock::time_point start,
              Clock::time_point end, uint64_t id, uint64_t parent,
              uint64_t run);

  /// Writes {"traceEvents": [...]} to `path`. False on IO failure.
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const;

 private:
  struct SpanRecord {
    std::string name;
    double start_us = 0;
    double dur_us = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t run = 0;
    uint64_t thread = 0;
  };
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;  // guarded by mu_
  std::atomic<uint64_t> next_run_{0};
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span: times from construction to End() (or destruction) and
/// records it there. Its parent is `parent`, or else the innermost span
/// still open on this thread; spans on one thread must end in reverse
/// order of construction.
class Span {
 public:
  Span(Tracer& tracer, std::string name, uint64_t parent = 0,
       uint64_t run = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span; returns its duration in seconds. Idempotent.
  double End();
  uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::string name_;
  uint64_t parent_;
  uint64_t run_;
  uint64_t id_ = 0;
  Tracer::Clock::time_point start_;
  double seconds_ = -1;
};

// --------------------------------------------------------------------------
// Serve load

/// One completed request as the client saw it.
struct ServeSample {
  std::string solver;
  double latency_ms = 0;  // client side: HandleLine to response
  std::string response;   // the raw response line
};

struct ServeLoad {
  std::vector<ServeSample> samples;  // client by client, in send order
  double seconds = 0;                // wall time of the whole load
};

/// Closed-loop load: `clients` threads each send solve requests for
/// `path` (include_cover, all other knobs at their defaults), each cycle
/// sending every ServeMix() solver once in a seeded order, and each
/// waiting for its response before sending the next. Stops once `seconds` have passed and at
/// least `min_requests` completed or, when `cycles` > 0, after each
/// client sent that many full cycles.
ServeLoad RunServeLoad(streamcover::CoverageServer& server,
                       const std::string& path, uint32_t clients,
                       uint64_t seed, double seconds, size_t min_requests,
                       uint32_t cycles, Tracer& tracer);

/// A parsed and checked serve response.
struct ServeOutcome {
  bool ok = false;  // ok, success, and the cover verified
  double run_ms = 0;
  uint64_t passes = 0;
  uint64_t space_words = 0;
  uint64_t cover_size = 0;
};

/// Parses `sample.response` and verifies its cover against `system` (an
/// independent in-memory load of the served file). With `corrupt` the
/// cover loses its last set before the check.
ServeOutcome CheckServeResponse(const ServeSample& sample,
                                const streamcover::SetSystem& system,
                                size_t planted_k, bool corrupt);

// --------------------------------------------------------------------------
// Layer probes (layers.cc)

/// Median seconds of one full scan of `path` through MmapSetSource at the
/// workload's scan_threads, each checked to deliver every set and `nnz`
/// elements.
std::optional<double> ProbeDecode(const std::string& path,
                                  const Workload& workload, uint64_t nnz,
                                  Tracer& tracer, std::string* error);

/// Median seconds of one PassScheduler::RunRound over `path` at the
/// workload's threads, serving `branches` no-op consumers.
std::optional<double> ProbeDispatchRound(const std::string& path,
                                         const Workload& workload,
                                         uint32_t branches, Tracer& tracer,
                                         std::string* error);

/// Million elements per second of each coverage kernel over every set
/// of `system` against a seeded half-covered mask.
struct KernelRates {
  double count = 0;
  double filter = 0;
  double mark = 0;
};
std::optional<KernelRates> ProbeKernels(const streamcover::SetSystem& system,
                                        uint64_t seed, Tracer& tracer,
                                        std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
