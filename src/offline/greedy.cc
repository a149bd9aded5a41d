#include "offline/greedy.h"

#include <algorithm>
#include <cmath>

#include "offline/lazy_greedy.h"
#include "setsystem/transposed_index.h"

namespace streamcover {

OfflineResult GreedySolver::Solve(const SetSystem& system) const {
  const SetSystemRows rows{system, kernel_};
  const TransposedIndex index = TransposeRows(rows, system.num_elements());
  // Elements no set contains are uncoverable: the run stops right after
  // the pick that covers every other element.
  uint64_t coverable = 0;
  for (uint32_t e = 0; e < system.num_elements(); ++e) {
    if (index.Coverable(e)) ++coverable;
  }
  DynamicBitset uncovered(system.num_elements(), true);
  const LazyGreedyRun run = LazyGreedy(rows, index, uncovered, coverable);

  OfflineResult result;
  for (uint32_t row : run.picks) {
    result.cover.set_ids.push_back(rows.set_id(row));
  }
  result.gain_updates = run.gain_updates;
  result.sets_touched = run.sets_touched;
  return result;
}

double GreedySolver::Rho(uint32_t num_elements) const {
  return std::log(static_cast<double>(std::max(num_elements, 2u))) + 1.0;
}

}  // namespace streamcover
