#include "shard/merge_stage.h"

#include "offline/lazy_greedy.h"
#include "util/check.h"
#include "util/mathutil.h"

namespace streamcover {

/// The candidates, in insertion order, as LazyGreedy rows.
struct MergeStage::CandidateRows {
  const MergeStage& stage;

  uint32_t size() const { return static_cast<uint32_t>(stage.ids_.size()); }
  template <typename Fn>
  void ForEachElement(uint32_t i, Fn&& fn) const {
    if (!stage.IsDense(i)) {
      for (uint32_t e : stage.SparseElems(i)) fn(e);
      return;
    }
    const std::span<const uint64_t> row =
        stage.dense_.Row(stage.dense_row_[i]);
    for (size_t w = 0; w < row.size(); ++w) {
      for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits)));
      }
    }
  }
  uint64_t Pick(uint32_t i, DynamicBitset& mask,
                std::vector<uint32_t>& newly) const {
    return stage.PickInto(i, mask, newly);
  }
};

MergeStage::MergeStage(uint32_t num_elements, uint32_t num_sets,
                       MergeStageOptions options)
    : num_elements_(num_elements),
      options_(options),
      seen_ids_(num_sets),
      dense_(num_elements) {
  tracker_.Charge(seen_ids_.WordCount());
}

void MergeStage::AddCandidate(uint32_t id,
                              std::span<const uint32_t> elems) {
  SC_CHECK_LT(id, seen_ids_.size());
  if (seen_ids_.Test(id)) {
    ++duplicates_dropped_;
    return;
  }
  seen_ids_.Set(id);
  ids_.push_back(id);
  if (ShouldStoreDense(elems.size(), num_elements_)) {
    dense_row_.push_back(dense_.AddRow(elems));
    offsets_.push_back(elems_.size());
    tracker_.Charge(dense_.words_per_row() + 1);
  } else {
    dense_row_.push_back(kSparse);
    elems_.insert(elems_.end(), elems.begin(), elems.end());
    offsets_.push_back(elems_.size());
    tracker_.Charge(elems.size() + 1);
  }
}

uint64_t MergeStage::GainOf(size_t i, const DynamicBitset& mask) const {
  if (IsDense(i)) {
    return CountUncoveredDense(dense_.Row(dense_row_[i]), mask,
                               options_.kernel);
  }
  return CountUncovered(SparseElems(i), mask, options_.kernel);
}

uint64_t MergeStage::PickInto(size_t i, DynamicBitset& mask,
                              std::vector<uint32_t>& newly) const {
  newly.clear();
  if (IsDense(i)) {
    const std::span<const uint64_t> row = dense_.Row(dense_row_[i]);
    const uint64_t gain = FilterIntoDense(row, mask, newly, options_.kernel);
    const uint64_t cleared = MarkCoveredDense(row, mask, options_.kernel);
    SC_DCHECK_EQ(gain, cleared);
    (void)cleared;
    return gain;
  }
  const std::span<const uint32_t> elems = SparseElems(i);
  FilterInto(elems, mask, newly, options_.kernel);
  return MarkCovered(elems, mask, options_.kernel);
}

MergeOutcome MergeStage::Merge() {
  const uint64_t required =
      num_elements_ - AllowedUncovered(num_elements_,
                                       options_.coverage_fraction);
  if (options_.gain == GainMaintenance::kRescan) return MergeRescan(required);

  const CandidateRows rows{*this};
  const TransposedIndex index = TransposeRows(rows, num_elements_);
  DynamicBitset uncovered(num_elements_, true);
  const LazyGreedyRun run = LazyGreedy(rows, index, uncovered, required);
  // Mask, heap entries, index and tracker, plus one word per pick.
  tracker_.Charge(uncovered.WordCount() + run.working_words +
                  index.word_count() + run.picks.size());

  MergeOutcome outcome;
  for (uint32_t i : run.picks) outcome.cover.set_ids.push_back(ids_[i]);
  outcome.covered = run.covered;
  outcome.success = outcome.covered >= required;
  counters_.rounds = run.picks.size();
  counters_.sets_touched = run.sets_touched;
  counters_.gain_updates = run.gain_updates;
  return outcome;
}

MergeOutcome MergeStage::MergeRescan(uint64_t required) {
  MergeOutcome outcome;
  LiveMask uncovered(num_elements_, true);
  std::vector<uint8_t> picked(ids_.size(), 0);
  std::vector<uint32_t> newly;
  tracker_.Charge(uncovered.WordCount() + (ids_.size() + 7) / 8);

  while (outcome.covered < required) {
    // Full rescan: recompute every unpicked candidate's residual gain.
    // Strictly-greater keeps the earliest-inserted winner on ties,
    // matching the transposed heap's packed-key order.
    uint64_t best_gain = 0;
    size_t best_idx = 0;
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (picked[i]) continue;
      const uint64_t gain = GainOf(i, uncovered.bits());
      ++counters_.sets_touched;
      if (gain > best_gain) {
        best_gain = gain;
        best_idx = i;
      }
    }
    if (best_gain == 0) break;
    picked[best_idx] = 1;
    const uint64_t realized = PickInto(best_idx, uncovered.bits(), newly);
    SC_DCHECK_EQ(realized, best_gain);
    outcome.covered += realized;
    outcome.cover.set_ids.push_back(ids_[best_idx]);
    ++counters_.rounds;
    tracker_.Charge(1);
  }
  outcome.success = outcome.covered >= required;
  return outcome;
}

}  // namespace streamcover
