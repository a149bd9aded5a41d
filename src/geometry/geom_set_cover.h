// algGeomSC — the geometric streaming set cover algorithm
// (Figure 4.1, Theorem 4.6): O(1) passes (3/delta + 1), O~(n) space,
// O(rho)-approximation for points vs disks / axis-parallel rectangles /
// fat triangles.
//
// Differences from iterSetCover that buy the O~(n) space:
//  * the per-iteration sample has size c*rho*k*(n/k)^delta*log m*log n
//    (note (n/k)^delta, enabled by the final sweep that finishes off the
//    last <= k stragglers with one set each);
//  * light ranges are stored through their canonical representation
//    (CanonicalizeRange), never as raw projections — the number of
//    distinct canonical sets is near-linear in |S| even when the stream
//    carries quadratically many distinct shallow ranges (Figure 1.2);
//  * a third pass maps each chosen canonical set back to a concrete
//    superset range from the stream.
//
// Execution model: the repository is the range space (set i = trace of
// shape i, geometry/range_space.h), streamed like any other instance.
// Each guess is a ScanConsumer on a PassScheduler, and the guesses run
// in parallel through stream/parallel_guesses.h, the driver
// iterSetCover uses. `passes` is the per-guess max, `sequential_scans`
// the per-guess sum, and `physical_scans` what the repository paid: one
// shared scan per round, so it equals `passes`.

#ifndef STREAMCOVER_GEOMETRY_GEOM_SET_COVER_H_
#define STREAMCOVER_GEOMETRY_GEOM_SET_COVER_H_

#include <cstdint>
#include <vector>

#include "geometry/geom_io.h"
#include "offline/solver.h"
#include "setsystem/cover.h"
#include "stream/pass_scheduler.h"

namespace streamcover {

/// Tuning knobs for AlgGeomSC; defaults follow Figure 4.1 / Theorem 4.6
/// (delta = 1/4 gives constant passes).
struct GeomSetCoverOptions {
  double delta = 0.25;
  double sample_constant = 0.5;
  /// Offline solver for the sampled canonical sub-instance; null =>
  /// greedy.
  const OfflineSolver* offline = nullptr;
  uint64_t seed = 1;
  /// Lightness slack: traces larger than slack * |S| / k are treated as
  /// oversize in CanonicalizeRange (Lemma 4.5 uses 3).
  double lightness_slack = 3.0;
};

/// Per-iteration trace for benches/tests.
struct GeomIterationDiag {
  uint32_t iteration = 0;
  uint64_t uncovered_before = 0;
  uint64_t uncovered_after = 0;
  uint64_t sample_size = 0;
  uint64_t heavy_picked = 0;
  uint64_t canonical_sets = 0;
  uint64_t canonical_words = 0;
  uint64_t oversize_ranges = 0;
};

/// Result of a geometric streaming solve.
struct GeomStreamingResult {
  Cover cover;  ///< shape ids (= set ids of the range space)
  bool success = false;
  uint64_t passes = 0;                ///< per-guess max (parallel guesses)
  uint64_t sequential_scans = 0;      ///< per-guess passes, summed
  uint64_t physical_scans = 0;        ///< scans of the repository
  uint64_t space_words_parallel = 0;  ///< sum of per-guess peaks
  uint64_t space_words_max_guess = 0;
  uint64_t winning_k = 0;
  std::vector<GeomIterationDiag> diagnostics;
};

/// Runs algGeomSC with every guess multiplexed on `scheduler`, whose
/// stream must be the range space of `geometry`. The points are
/// memory-resident (charged 2n words); shapes are read only beside
/// their streamed traces.
GeomStreamingResult AlgGeomSC(PassScheduler& scheduler,
                              const GeomDataset& geometry,
                              const GeomSetCoverOptions& options);

/// Single guess k (tests / ablations).
GeomStreamingResult AlgGeomSCSingleGuess(PassScheduler& scheduler,
                                         const GeomDataset& geometry,
                                         uint64_t k,
                                         const GeomSetCoverOptions& options);

}  // namespace streamcover

#endif  // STREAMCOVER_GEOMETRY_GEOM_SET_COVER_H_
