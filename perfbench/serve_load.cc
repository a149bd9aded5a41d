#include <atomic>
#include <future>
#include <numeric>
#include <thread>

#include "perfbench.h"
#include "setsystem/cover.h"
#include "util/rng.h"

namespace perfbench {

namespace {
constexpr uint64_t kClientSeedStride = 0x9e3779b97f4a7c15ULL;
}  // namespace

ServeLoad RunServeLoad(streamcover::CoverageServer& server,
                       const std::string& path, uint32_t clients,
                       uint64_t seed, double seconds, size_t min_requests,
                       uint32_t cycles, Tracer& tracer) {
  const std::vector<std::string>& mix = ServeMix();
  const Tracer::Clock::time_point start = Tracer::Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Tracer::Clock::now() - start)
        .count();
  };
  const uint64_t parent = Tracer::CurrentSpan();
  std::atomic<size_t> completed{0};
  std::vector<std::vector<ServeSample>> per_client(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Each cycle sends every solver once, in a fresh seeded order. A
      // fixed order locks the two clients into one phase for the whole
      // run, and which solvers then overlap set p99 from run to run.
      streamcover::Rng rng(seed * kClientSeedStride + c);
      std::vector<size_t> order(mix.size());
      for (uint64_t i = 0;; ++i) {
        if (cycles > 0 ? i >= cycles * mix.size()
                       : elapsed() >= seconds &&
                             completed.load() >= min_requests) {
          break;
        }
        if (i % mix.size() == 0) {
          std::iota(order.begin(), order.end(), size_t{0});
          for (size_t k = order.size(); k > 1; --k) {
            std::swap(order[k - 1], order[rng.Uniform(k)]);
          }
        }
        const std::string& solver = mix[order[i % mix.size()]];
        JsonValue request = JsonValue::Object();
        request.Set("op", "solve");
        std::string id = std::to_string(c);
        id += '-';
        id += std::to_string(i);
        request.Set("id", std::move(id));
        request.Set("instance", path);
        request.Set("solver", solver);
        request.Set("include_cover", true);
        // The responder may run on a worker after this thread has moved
        // on from get(); shared ownership keeps the promise alive for it.
        auto done = std::make_shared<std::promise<std::string>>();
        std::future<std::string> response = done->get_future();
        Span span(tracer, "CoverageServer::HandleLine", parent,
                  tracer.NextRun());
        server.HandleLine(request.Dump(0), [done](const std::string& line) {
          done->set_value(line);
        });
        std::string line = response.get();
        const double latency_ms = span.End() * 1e3;
        per_client[c].push_back({solver, latency_ms, std::move(line)});
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ServeLoad load;
  load.seconds = elapsed();
  for (std::vector<ServeSample>& samples : per_client) {
    for (ServeSample& sample : samples) {
      load.samples.push_back(std::move(sample));
    }
  }
  return load;
}

ServeOutcome CheckServeResponse(const ServeSample& sample,
                                const streamcover::SetSystem& system,
                                size_t planted_k, bool corrupt) {
  ServeOutcome outcome;
  std::optional<JsonValue> doc = JsonValue::Parse(sample.response);
  if (!doc.has_value() || !doc->is_object()) return outcome;
  const JsonValue* ok = doc->Find("ok");
  const JsonValue* success = doc->Find("success");
  const JsonValue* cover = doc->Find("cover");
  if (ok == nullptr || !ok->AsBool() || success == nullptr ||
      !success->AsBool() || cover == nullptr || !cover->is_array()) {
    return outcome;
  }
  const auto count = [&doc](const char* key) {
    const JsonValue* value = doc->Find(key);
    return value == nullptr ? uint64_t{0} : value->AsUint64();
  };
  const JsonValue* run_ms = doc->Find("duration_ms");
  outcome.run_ms = run_ms == nullptr ? 0 : run_ms->AsDouble();
  outcome.passes = count("passes");
  outcome.space_words = count("space_words");

  streamcover::Cover ids;
  for (const JsonValue& id : cover->items()) {
    const uint64_t set = id.AsUint64(UINT64_MAX);
    if (set >= system.num_sets()) return outcome;
    ids.set_ids.push_back(static_cast<uint32_t>(set));
  }
  const bool consistent = ids.size() == count("cover_size");
  if (corrupt && !ids.set_ids.empty()) ids.set_ids.pop_back();
  outcome.cover_size = ids.size();
  const double ratio =
      static_cast<double>(ids.size()) / static_cast<double>(planted_k);
  outcome.ok = consistent && streamcover::IsFullCover(system, ids) &&
               ratio <= CoverRatioBound(sample.solver, system.num_elements());
  return outcome;
}

}  // namespace perfbench
