// Layer probes: each times calls into one layer's public functions under
// its own spans and checks what the calls return.

#include <vector>

#include "perfbench.h"
#include "stream/mmap_set_source.h"
#include "stream/pass_scheduler.h"
#include "util/cover_kernels.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using streamcover::DynamicBitset;
using streamcover::SetView;

constexpr int kRepeats = 5;

/// A branch that does nothing with its sets but count them, so a round
/// costs only the scan and the scheduler's staging and fan-out.
class NoOpConsumer : public streamcover::ScanConsumer {
 public:
  void OnSet(const SetView&) override { ++seen_; }
  void OnBatch(std::span<const SetView> sets) override {
    seen_ += sets.size();
  }
  void OnPassEnd() override {}
  bool done() const override { return false; }
  uint64_t seen() const { return seen_; }

 private:
  uint64_t seen_ = 0;
};

std::optional<streamcover::MmapSetSource> OpenSource(const std::string& path,
                                                     const Workload& workload,
                                                     std::string* error) {
  std::optional<streamcover::MmapSetSource> source =
      streamcover::MmapSetSource::Open(path, error);
  if (source.has_value()) source->set_scan_threads(workload.scan_threads);
  return source;
}

}  // namespace

std::optional<double> ProbeDecode(const std::string& path,
                                  const Workload& workload, uint64_t nnz,
                                  Tracer& tracer, std::string* error) {
  std::optional<streamcover::MmapSetSource> source =
      OpenSource(path, workload, error);
  if (!source.has_value()) return std::nullopt;
  // The call the workload's scans make: the threaded scheduler consumes
  // pre-decoded batches, everything else the per-set scan.
  const bool batches = source->SupportsBatchScan() && workload.threads > 1;
  std::vector<double> seconds;
  for (int rep = 0; rep < kRepeats; ++rep) {
    uint64_t sets = 0;
    uint64_t elements = 0;
    Span span(tracer, batches ? "MmapSetSource::ScanBatches"
                              : "MmapSetSource::Scan");
    const bool ok =
        batches ? source->ScanBatches([&](std::span<const SetView> views) {
          sets += views.size();
          for (const SetView& view : views) elements += view.size();
        })
                : source->Scan([&](const SetView& view) {
                    ++sets;
                    elements += view.size();
                  });
    seconds.push_back(span.End());
    if (!ok || sets != source->num_sets() || elements != nnz) {
      *error = "decode probe: scan returned " + std::to_string(sets) +
               " sets / " + std::to_string(elements) + " elements, want " +
               std::to_string(source->num_sets()) + " / " +
               std::to_string(nnz) + " " + source->error();
      return std::nullopt;
    }
  }
  return Median(seconds);
}

std::optional<double> ProbeDispatchRound(const std::string& path,
                                         const Workload& workload,
                                         uint32_t branches, Tracer& tracer,
                                         std::string* error) {
  std::optional<streamcover::MmapSetSource> source =
      OpenSource(path, workload, error);
  if (!source.has_value()) return std::nullopt;
  streamcover::SetStream stream(&*source);
  streamcover::PassScheduler scheduler(stream, workload.threads);
  std::vector<NoOpConsumer> consumers(branches);
  for (NoOpConsumer& consumer : consumers) scheduler.Register(&consumer);
  std::vector<double> seconds;
  for (int rep = 1; rep <= kRepeats; ++rep) {
    Span span(tracer, "PassScheduler::RunRound");
    const size_t served = scheduler.RunRound();
    seconds.push_back(span.End());
    const uint64_t want = static_cast<uint64_t>(rep) * source->num_sets();
    bool ok = served == branches;
    for (const NoOpConsumer& consumer : consumers) {
      ok = ok && consumer.seen() == want;
    }
    if (!ok) {
      *error = "dispatch probe: a round served " + std::to_string(served) +
               " of " + std::to_string(branches) + " branches " +
               source->error();
      return std::nullopt;
    }
  }
  return Median(seconds);
}

std::optional<KernelRates> ProbeKernels(const streamcover::SetSystem& system,
                                        uint64_t seed, Tracer& tracer,
                                        std::string* error) {
  const uint32_t n = system.num_elements();
  const uint32_t m = system.num_sets();
  streamcover::Rng rng(seed);
  DynamicBitset mask(n);
  for (uint32_t e = 0; e < n; ++e) {
    if (rng.Bernoulli(0.5)) mask.Set(e);
  }
  // Reference checksums, one Test per element: live memberships, and
  // the live elements some set contains (what marking every set clears).
  uint64_t nnz = 0;
  uint64_t live = 0;
  DynamicBitset reachable(n);
  for (uint32_t s = 0; s < m; ++s) {
    for (uint32_t e : system.GetSet(s)) {
      live += mask.Test(e) ? 1 : 0;
      reachable.Set(e);
    }
    nnz += system.GetSet(s).size();
  }
  uint64_t live_reachable = 0;
  for (uint32_t e = 0; e < n; ++e) {
    live_reachable += mask.Test(e) && reachable.Test(e) ? 1 : 0;
  }

  // The policy a default-configured solve uses; the probe never pins one.
  const streamcover::KernelPolicy kernel = RunOptions{}.kernel;
  std::vector<double> count_s, filter_s, mark_s;
  std::vector<uint32_t> scratch;
  for (int rep = 0; rep < kRepeats; ++rep) {
    uint64_t counted = 0;
    Span count(tracer, "cover_kernels::CountUncovered");
    for (uint32_t s = 0; s < m; ++s) {
      counted += streamcover::CountUncovered(system.GetSet(s), mask, kernel);
    }
    count_s.push_back(count.End());

    uint64_t filtered = 0;
    Span filter(tracer, "cover_kernels::FilterInto");
    for (uint32_t s = 0; s < m; ++s) {
      scratch.clear();
      filtered +=
          streamcover::FilterInto(system.GetSet(s), mask, scratch, kernel);
    }
    filter_s.push_back(filter.End());

    DynamicBitset marked = mask;
    uint64_t cleared = 0;
    Span mark(tracer, "cover_kernels::MarkCovered");
    for (uint32_t s = 0; s < m; ++s) {
      cleared += streamcover::MarkCovered(system.GetSet(s), marked, kernel);
    }
    mark_s.push_back(mark.End());

    if (counted != live || filtered != live || cleared != live_reachable ||
        marked.Count() != mask.Count() - live_reachable) {
      *error = "kernel probe: checksums disagree with the reference (count " +
               std::to_string(counted) + ", filter " +
               std::to_string(filtered) + ", reference " +
               std::to_string(live) + ")";
      return std::nullopt;
    }
  }
  const double melem = static_cast<double>(nnz) / 1e6;
  return KernelRates{melem / Median(count_s), melem / Median(filter_s),
                     melem / Median(mark_s)};
}

}  // namespace perfbench
