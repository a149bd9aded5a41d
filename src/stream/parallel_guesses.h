// The log n optimum-size guesses of the sampling algorithms
// (iterSetCover, Lemmas 2.1/2.2; algGeomSC, Theorem 4.6), composed in
// parallel on one PassScheduler.
//
// Every guess k = 1, 2, 4, ... up to the first k >= n is registered
// before the first round, so pass p of every live guess rides the p-th
// physical scan. The winner follows the sequential rule: ascending k, a
// success replaces the incumbent only when its cover is strictly
// smaller. Accounting is the parallel composition: `passes` is the
// per-guess max, `sequential_scans` the per-guess sum, space the sum
// and max of per-guess peaks, and `physical_scans` what this run's
// rounds scanned.

#ifndef STREAMCOVER_STREAM_PARALLEL_GUESSES_H_
#define STREAMCOVER_STREAM_PARALLEL_GUESSES_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "stream/pass_scheduler.h"

namespace streamcover {

/// Runs the guesses `make_guess(k)` (a std::unique_ptr to a ScanConsumer
/// with `peak_words()` and `TakeResult(logical_passes)`) to completion
/// on `scheduler` and returns the winner's result with the parallel
/// accounting filled in. `after_round(guesses)` runs on the scheduling
/// thread after every round (iterSetCover's early-exit retire rule).
template <typename MakeGuess, typename AfterRound>
auto RunParallelGuesses(PassScheduler& scheduler, MakeGuess&& make_guess,
                        AfterRound&& after_round) {
  const uint32_t n = scheduler.stream().num_elements();
  const uint64_t physical_before = scheduler.physical_scans();

  std::vector<decltype(make_guess(uint64_t{1}))> guesses;
  std::vector<size_t> slots;
  for (uint64_t k = 1;; k *= 2) {
    guesses.push_back(make_guess(k));
    slots.push_back(scheduler.Register(guesses.back().get()));
    if (k >= n) break;
  }

  // Drive rounds only while OUR guesses are live: foreign consumers on
  // the same scheduler ride these scans but never extend this run's
  // window or inflate its physical-scan attribution.
  while (std::any_of(guesses.begin(), guesses.end(),
                     [](const auto& guess) { return !guess->done(); })) {
    // A 0 return with guesses still live means the stream failed
    // mid-scan (scheduler.stream_failed()); the guesses can never
    // finish, so stop driving — they surface as unsuccessful results
    // and RunSolver reports the stream error.
    if (scheduler.RunRound() == 0) break;
    after_round(guesses);
  }

  decltype(guesses[0]->TakeResult(0)) best;
  uint64_t passes_max = 0;
  uint64_t scans_total = 0;
  uint64_t space_sum = 0;
  uint64_t space_max = 0;
  for (size_t i = 0; i < guesses.size(); ++i) {
    const uint64_t peak = guesses[i]->peak_words();
    auto guess_result = guesses[i]->TakeResult(scheduler.passes(slots[i]));
    passes_max = std::max(passes_max, guess_result.passes);
    scans_total += guess_result.sequential_scans;
    space_sum += peak;
    space_max = std::max(space_max, peak);
    if (guess_result.success &&
        (!best.success || guess_result.cover.size() < best.cover.size())) {
      best = std::move(guess_result);
    }
    scheduler.Retire(slots[i]);
  }
  best.passes = passes_max;
  best.sequential_scans = scans_total;
  best.physical_scans = scheduler.physical_scans() - physical_before;
  best.space_words_parallel = space_sum;
  best.space_words_max_guess = space_max;
  return best;
}

}  // namespace streamcover

#endif  // STREAMCOVER_STREAM_PARALLEL_GUESSES_H_
