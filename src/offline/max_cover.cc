#include "offline/max_cover.h"

#include <utility>

#include "offline/greedy.h"
#include "offline/lazy_greedy.h"
#include "setsystem/transposed_index.h"
#include "util/bitset.h"
#include "util/check.h"

namespace streamcover {

MaxCoverResult GreedyMaxCover(const SetSystem& system, uint32_t budget,
                              KernelPolicy kernel) {
  // GreedySolver's engine and row order, capped at `budget` picks: the
  // result is the first `budget` picks of GreedySolver().Solve(system).
  const SetSystemRows rows{system, kernel};
  const TransposedIndex index = TransposeRows(rows, system.num_elements());
  DynamicBitset uncovered(system.num_elements(), true);
  const LazyGreedyRun run =
      LazyGreedy(rows, index, uncovered, system.num_elements(), budget);
  MaxCoverResult result;
  for (uint32_t row : run.picks) {
    result.cover.set_ids.push_back(rows.set_id(row));
  }
  result.covered = run.covered;
  return result;
}

MaxCoverResult BruteForceMaxCover(const SetSystem& system, uint32_t budget) {
  const uint32_t m = system.num_sets();
  SC_CHECK_LE(m, 24u);
  MaxCoverResult best;
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    if (static_cast<uint32_t>(__builtin_popcount(mask)) > budget) continue;
    Cover c;
    for (uint32_t s = 0; s < m; ++s) {
      if (mask & (1u << s)) c.set_ids.push_back(s);
    }
    uint64_t covered = CoveredCount(system, c);
    if (covered > best.covered) {
      best.covered = covered;
      best.cover = std::move(c);
    }
  }
  return best;
}

}  // namespace streamcover
