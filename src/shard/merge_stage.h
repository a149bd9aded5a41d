// MergeStage — greedy re-cover over the union of shard candidates.
//
// The second half of the RandGreeDI pattern: the shard engines each
// hand over a bounded candidate buffer, and the merge runs an
// in-memory exact greedy over the union, re-covering the full universe.
// Candidates are deduplicated by set id at insertion — shards produced
// by a partitioner are disjoint by construction, but the stage is the
// seam future candidate producers (overlapping samplers, retries) also
// feed, so duplicates are dropped here and counted rather than assumed
// away.
//
// Representation: candidates above the dense-storage threshold
// (ShouldStoreDense) live as bitset rows in a BitsetCSR and run the
// fused dense kernels; the rest stay in a sparse CSR on the PR-5 word
// kernels. Either way the stored footprint and the per-query work are
// the smaller of the two forms.
//
// Gain maintenance (MergeStageOptions::gain):
//   * kTransposed (default) — output-sensitive: the LazyGreedy engine
//     (offline/lazy_greedy.h) transposes the union into an
//     element→candidates index (one count + one fill sweep), keeps
//     every candidate's residual gain exact, and picks from a lazily
//     re-keyed max-heap. Total maintenance is nnz(candidates): each
//     (element, candidate) pair is touched at most once.
//   * kRescan — the A/B baseline: every unpicked candidate's gain is
//     recomputed from the mask each round (rounds × candidates kernel
//     calls). Same covers, byte for byte; only the work differs.
//
// Both modes pick the exact greedy argmax with earliest-inserted-wins
// tie-breaking, so the merged cover is a pure function of the candidate
// sequence — identical across modes, kernels, shard sources, and
// thread counts.
//
// Counters: `sets_touched` counts candidate-gain evaluations (heap
// inspections in kTransposed, per-round recomputes in kRescan);
// `gain_updates` counts the tracker's O(1) decrements (0 in kRescan).
// The pair is what bench_hotpath's gain stage and the sweep report
// surface to make output-sensitivity observable.

#ifndef STREAMCOVER_SHARD_MERGE_STAGE_H_
#define STREAMCOVER_SHARD_MERGE_STAGE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "setsystem/cover.h"
#include "stream/space_tracker.h"
#include "util/bitset.h"
#include "util/cover_kernels.h"

namespace streamcover {

/// How MergeStage keeps candidate gains current between picks.
enum class GainMaintenance : uint8_t {
  kTransposed,  ///< element→candidates index + exact decremental gains
  kRescan,      ///< recompute every candidate per round (A/B baseline)
};

struct MergeStageOptions {
  KernelPolicy kernel = KernelPolicy::kWord;
  /// epsilon-Partial target, same semantics as RunOptions: the merge
  /// stops once 1 - coverage_fraction of U may stay uncovered.
  double coverage_fraction = 1.0;
  GainMaintenance gain = GainMaintenance::kTransposed;
};

/// Work accounting for one Merge() call (see header comment).
struct MergeCounters {
  uint64_t rounds = 0;        ///< picks performed
  uint64_t sets_touched = 0;  ///< candidate-gain evaluations
  uint64_t gain_updates = 0;  ///< tracker decrements (kTransposed only)
};

struct MergeOutcome {
  Cover cover;            ///< picks, in greedy order
  uint64_t covered = 0;   ///< elements of U the picks cover
  bool success = false;   ///< covered its coverage_fraction target
};

class MergeStage {
 public:
  MergeStage(uint32_t num_elements, uint32_t num_sets,
             MergeStageOptions options);

  /// Records one candidate. A repeated id is dropped (not re-stored)
  /// and counted in duplicates_dropped(). Elements must be the sorted
  /// unique span the stream layer guarantees.
  void AddCandidate(uint32_t id, std::span<const uint32_t> elems);

  /// Exact greedy over everything added so far. Call once.
  MergeOutcome Merge();

  uint64_t candidates() const { return ids_.size(); }
  uint64_t duplicates_dropped() const { return duplicates_dropped_; }
  uint64_t dense_candidates() const { return dense_.rows(); }
  uint64_t space_words() const { return tracker_.peak_words(); }
  const MergeCounters& counters() const { return counters_; }

 private:
  static constexpr uint32_t kSparse = UINT32_MAX;

  bool IsDense(size_t i) const { return dense_row_[i] != kSparse; }
  std::span<const uint32_t> SparseElems(size_t i) const {
    return std::span<const uint32_t>(elems_).subspan(
        offsets_[i], offsets_[i + 1] - offsets_[i]);
  }

  /// Residual gain of candidate `i` against `mask`, via the matching
  /// representation's kernel.
  uint64_t GainOf(size_t i, const DynamicBitset& mask) const;

  /// Appends candidate i's still-uncovered elements to `newly`, clears
  /// them from `mask`, and returns the realized gain.
  uint64_t PickInto(size_t i, DynamicBitset& mask,
                    std::vector<uint32_t>& newly) const;

  struct CandidateRows;  // LazyGreedy row adapter over the candidates

  MergeOutcome MergeRescan(uint64_t required);

  const uint32_t num_elements_;
  const MergeStageOptions options_;

  DynamicBitset seen_ids_;
  uint64_t duplicates_dropped_ = 0;

  // Candidate storage, insertion order: candidate i is either sparse
  // (elems_[offsets_[i], offsets_[i+1]), dense_row_[i] == kSparse) or
  // a dense bitset row (dense_.Row(dense_row_[i])).
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> dense_row_;
  std::vector<size_t> offsets_{0};
  std::vector<uint32_t> elems_;
  BitsetCSR dense_;

  MergeCounters counters_;
  SpaceTracker tracker_;
};

}  // namespace streamcover

#endif  // STREAMCOVER_SHARD_MERGE_STAGE_H_
