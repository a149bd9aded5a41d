// LazyGreedy — the library's one exact greedy pick loop.
//
// GreedySolver (and through it offline_greedy, store_all_greedy, dimv14
// and iterSetCover's per-guess solves), the shard MergeStage and
// GreedyMaxCover each keep their own storage and hand the engine a row
// adapter, resolved at compile time:
//
//   uint32_t size() const;                               // row count
//   template <typename Fn>
//   void ForEachElement(uint32_t row, Fn&& fn) const;    // fn(e) per element
//   uint64_t Pick(uint32_t row, DynamicBitset& uncovered,
//                 std::vector<uint32_t>& newly) const;
//
// Pick appends the row's still-uncovered elements to the (cleared)
// `newly`, clears them from `uncovered`, and returns how many there were.
//
// Gains stay exact through a TransposedIndex + GainTracker, and picks
// come from a flat max-heap of packed (gain << 32 | ~row) keys. Claims
// only age upward, so a root whose claim equals its tracked gain is the
// exact greedy argmax, ties going to the earliest row; a stale root is
// re-keyed in place with one sift-down. Keys are distinct, so picks and
// counters never depend on the heap's layout. `sets_touched` counts
// root inspections, `gain_updates` the tracker's O(1) decrements.

#ifndef STREAMCOVER_OFFLINE_LAZY_GREEDY_H_
#define STREAMCOVER_OFFLINE_LAZY_GREEDY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "setsystem/transposed_index.h"
#include "util/bitset.h"
#include "util/check.h"

namespace streamcover {

/// What one LazyGreedy run picked and what it cost.
struct LazyGreedyRun {
  std::vector<uint32_t> picks;  ///< rows, in greedy order
  uint64_t covered = 0;         ///< elements the picks covered
  uint64_t sets_touched = 0;
  uint64_t gain_updates = 0;
  uint64_t working_words = 0;   ///< heap entries + tracker words retained
};

/// Restores the max-heap property after heap[0] was replaced with a
/// smaller key: one sift-down instead of pop_heap + push_heap.
/// Layout-compatible with std::make_heap / std::pop_heap.
inline void SiftDownRoot(std::vector<uint64_t>& heap) {
  const size_t n = heap.size();
  const uint64_t value = heap[0];
  size_t i = 0;
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap[child] < heap[child + 1]) ++child;
    if (heap[child] <= value) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = value;
}

/// Element → rows index over every row: one count sweep and one fill
/// sweep, so columns list rows in ascending order.
template <typename Rows>
TransposedIndex TransposeRows(const Rows& rows, uint32_t num_elements) {
  TransposedIndex::Builder builder(num_elements);
  for (uint32_t row = 0; row < rows.size(); ++row) {
    rows.ForEachElement(row, [&](uint32_t e) { builder.CountElement(e); });
  }
  builder.PrepareFill();
  for (uint32_t row = 0; row < rows.size(); ++row) {
    rows.ForEachElement(row,
                        [&](uint32_t e) { builder.FillElement(row, e); });
  }
  return std::move(builder).Build();
}

/// Exact lazy greedy over `rows` (indexed by `index`, which must be
/// TransposeRows(rows, ...)), clearing picked elements from
/// `uncovered`. Stops once `covered >= required`, after `max_picks`
/// picks, or when no row has positive gain left.
template <typename Rows>
LazyGreedyRun LazyGreedy(
    const Rows& rows, const TransposedIndex& index, DynamicBitset& uncovered,
    uint64_t required,
    uint64_t max_picks = std::numeric_limits<uint64_t>::max()) {
  constexpr uint32_t kLow = std::numeric_limits<uint32_t>::max();
  auto pack = [](uint64_t gain, uint32_t row) -> uint64_t {
    return (gain << 32) | (kLow - row);
  };
  LazyGreedyRun run;
  GainTracker gains(&index, rows.size());
  gains.InitFromMask(uncovered);
  std::vector<uint64_t> heap;
  heap.reserve(rows.size());
  for (uint32_t row = 0; row < rows.size(); ++row) {
    if (gains.gain(row) > 0) heap.push_back(pack(gains.gain(row), row));
  }
  std::make_heap(heap.begin(), heap.end());
  run.working_words = heap.size() + gains.word_count();

  std::vector<uint32_t> newly;  // reused per pick
  while (run.covered < required && run.picks.size() < max_picks &&
         !heap.empty()) {
    const uint64_t top = heap.front();
    const uint32_t row = kLow - static_cast<uint32_t>(top);
    const uint64_t gain = gains.gain(row);
    ++run.sets_touched;
    if (gain != 0 && gain != (top >> 32)) {  // stale claim: re-key
      heap.front() = pack(gain, row);
      SiftDownRoot(heap);
      continue;
    }
    std::pop_heap(heap.begin(), heap.end());
    heap.pop_back();
    if (gain == 0) continue;  // dead entry: covered by earlier picks
    newly.clear();
    const uint64_t realized = rows.Pick(row, uncovered, newly);
    SC_DCHECK_EQ(realized, gain);
    // The pick's own column entries zero its tracked gain too, so a
    // popped row never needs tombstoning.
    gains.OnCovered(newly);
    run.covered += realized;
    run.picks.push_back(row);
  }
  run.gain_updates = gains.gain_updates();
  return run;
}

}  // namespace streamcover

#endif  // STREAMCOVER_OFFLINE_LAZY_GREEDY_H_
