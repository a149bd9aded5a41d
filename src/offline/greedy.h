// The classic greedy SetCover algorithm, rho = ln n.
//
// Runs the LazyGreedy engine (offline/lazy_greedy.h): exact residual
// gains via a transposed index, lazily re-keyed max-heap, ties to the
// larger set id.

#ifndef STREAMCOVER_OFFLINE_GREEDY_H_
#define STREAMCOVER_OFFLINE_GREEDY_H_

#include <cstdint>
#include <vector>

#include "offline/solver.h"
#include "util/bitset.h"
#include "util/cover_kernels.h"

namespace streamcover {

/// Presents a SetSystem to the LazyGreedy engine last set first: row i
/// is set m-1-i, so the engine's earliest-row tie-break picks the
/// larger set id.
struct SetSystemRows {
  const SetSystem& system;
  KernelPolicy kernel;

  uint32_t size() const { return system.num_sets(); }
  uint32_t set_id(uint32_t row) const { return size() - 1 - row; }
  template <typename Fn>
  void ForEachElement(uint32_t row, Fn&& fn) const {
    for (uint32_t e : system.GetSet(set_id(row))) fn(e);
  }
  uint64_t Pick(uint32_t row, DynamicBitset& uncovered,
                std::vector<uint32_t>& newly) const {
    FilterInto(system.GetSet(set_id(row)), uncovered, newly, kernel);
    return MarkCovered(newly, uncovered, kernel);
  }
};

/// Greedy offline solver (H_n <= ln n + 1 approximation).
class GreedySolver : public OfflineSolver {
 public:
  GreedySolver() = default;
  /// Selects the coverage-kernel twin for gain recomputation; results
  /// are identical either way.
  explicit GreedySolver(KernelPolicy kernel) : kernel_(kernel) {}

  OfflineResult Solve(const SetSystem& system) const override;

  double Rho(uint32_t num_elements) const override;

  std::string name() const override { return "greedy"; }

 private:
  KernelPolicy kernel_ = KernelPolicy::kWord;
};

}  // namespace streamcover

#endif  // STREAMCOVER_OFFLINE_GREEDY_H_
