#include "geometry/geom_set_cover.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <unordered_map>

#include "geometry/canonical.h"
#include "offline/greedy.h"
#include "stream/parallel_guesses.h"
#include "stream/sampling.h"
#include "stream/space_tracker.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/mathutil.h"
#include "util/rng.h"

namespace streamcover {
namespace {

// Membership predicate over `bits`, for the std:: algorithms.
auto InSet(const DynamicBitset& bits) {
  return [&bits](uint32_t e) { return bits.Test(e); };
}

// One guess k of algGeomSC as a ScanConsumer. Each of the 1/delta
// iterations is three passes — heavy, canonical, match — and a final
// sweep finishes off the stragglers. A streamed set is the trace of the
// shape with the same id; the shape itself is read only to split
// rectangles into canonical pieces. `stream` must be the range space of
// `geometry`.
class GeomGuess final : public ScanConsumer {
 public:
  GeomGuess(uint64_t k, const SetStream& stream, const GeomDataset& geometry,
            const GeomSetCoverOptions& options)
      : k_(k),
        n_(static_cast<uint32_t>(geometry.points.size())),
        m_(static_cast<uint32_t>(geometry.shapes.size())),
        geometry_(&geometry),
        options_(&options),
        offline_(options.offline != nullptr ? options.offline : &greedy_),
        rho_(offline_->Rho(n_)),
        heavy_threshold_(static_cast<double>(n_) / static_cast<double>(k)),
        rng_(options.seed ^ (k * 0x9e3779b97f4a7c15ULL)),
        uncovered_(n_, true) {
    SC_CHECK(options.delta > 0.0 && options.delta <= 1.0);
    SC_CHECK(stream.num_elements() == n_ && stream.num_sets() == m_);
    iterations_ = static_cast<uint64_t>(std::ceil(1.0 / options.delta) + 1e-9);
    // The model stores the point set in memory: 2 words per point.
    tracker_.Charge(2ULL * n_);
    tracker_.Charge(uncovered_.WordCount());
    StartIteration();
  }
  // offline_ may point at greedy_, and the scheduler holds the address.
  GeomGuess(const GeomGuess&) = delete;
  GeomGuess& operator=(const GeomGuess&) = delete;

  void OnSet(const SetView& set) override {
    switch (phase_) {
      case Phase::kHeavy: {
        // Take every heavy range (|r ∩ L| >= |U|/k).
        const auto gain =
            std::count_if(set.begin(), set.end(), InSet(uncovered_));
        if (gain > 0 && static_cast<double>(gain) >= heavy_threshold_) {
          Take(set);
          ++diag_.heavy_picked;
        }
        return;
      }
      case Phase::kCanonical: {
        // The range's trace on the sample S, as local sample indices.
        local_.clear();
        for (uint32_t e : set) {
          auto it = global_to_local_.find(e);
          if (it != global_to_local_.end()) local_.push_back(it->second);
        }
        std::sort(local_.begin(), local_.end());
        if (CanonicalizeRange(geometry_->shapes[set.id], local_, w_,
                              *splitter_, store_)) {
          ++diag_.oversize_ranges;
        }
        return;
      }
      case Phase::kMatch: {
        // Replace each chosen canonical set by a superset range.
        if (unmatched_ == 0) return;
        for (size_t i = 0; i < chosen_.size(); ++i) {
          if (matched_[i] || !std::includes(set.begin(), set.end(),
                                            chosen_[i].begin(),
                                            chosen_[i].end())) {
            continue;
          }
          matched_[i] = true;
          --unmatched_;
          Take(set);
        }
        return;
      }
      case Phase::kFinalSweep: {
        // Cover the <= k stragglers with one range each.
        if (std::any_of(set.begin(), set.end(), InSet(uncovered_))) Take(set);
        return;
      }
      case Phase::kDone:
        return;
    }
  }

  void OnPassEnd() override {
    switch (phase_) {
      case Phase::kHeavy:
        FinishHeavy();
        return;
      case Phase::kCanonical:
        FinishCanonical();
        return;
      case Phase::kMatch:
        FinishMatch();
        return;
      case Phase::kFinalSweep:
        Finalize();
        return;
      case Phase::kDone:
        return;
    }
  }

  bool done() const override { return phase_ == Phase::kDone; }

  uint64_t peak_words() const { return tracker_.peak_words(); }

  GeomStreamingResult TakeResult(uint64_t logical_passes) {
    GeomStreamingResult result;
    result.cover = std::move(sol_);
    result.success = success_;
    result.passes = logical_passes;
    result.sequential_scans = logical_passes;
    result.physical_scans = logical_passes;
    result.space_words_parallel = tracker_.peak_words();
    result.space_words_max_guess = tracker_.peak_words();
    result.winning_k = k_;
    result.diagnostics = std::move(diagnostics_);
    return result;
  }

 private:
  enum class Phase { kHeavy, kCanonical, kMatch, kFinalSweep, kDone };

  void Take(const SetView& set) {
    sol_.set_ids.push_back(set.id);
    tracker_.Charge(1);
    for (uint32_t e : set) uncovered_.Reset(e);
  }

  void StartIteration() {
    diag_ = GeomIterationDiag{};
    diag_.iteration = static_cast<uint32_t>(iter_ + 1);
    diag_.uncovered_before = uncovered_.Count();
    phase_ = Phase::kHeavy;
  }

  void FinishHeavy() {
    const uint64_t uncovered_count = uncovered_.Count();
    if (uncovered_count == 0) {
      diagnostics_.push_back(diag_);
      Finalize();
      return;
    }

    // --- Sample S ⊆ L of size c*rho*k*(n/k)^delta*log m*log n. ---
    const uint64_t sample_size =
        GeomSampleSize(options_->sample_constant, rho_, k_, n_,
                       options_->delta, m_, uncovered_count);
    sample_ = SampleFromBitset(uncovered_, sample_size, rng_);
    diag_.sample_size = sample_.size();
    tracker_.Charge(sample_.size());

    // The sample as a point set (local index -> global id via sample_).
    sample_points_.clear();
    global_to_local_.clear();
    global_to_local_.reserve(sample_.size() * 2);
    for (uint32_t i = 0; i < sample_.size(); ++i) {
      sample_points_.push_back(geometry_->points[sample_[i]]);
      global_to_local_[sample_[i]] = i;
    }
    w_ = std::max(1.0, options_->lightness_slack *
                           static_cast<double>(sample_.size()) /
                           static_cast<double>(k_));
    splitter_.emplace(sample_points_);
    store_ = TraceStore();
    phase_ = Phase::kCanonical;
  }

  void FinishCanonical() {
    diag_.canonical_sets = store_.size();
    diag_.canonical_words = store_.total_words();
    // Definition 4.1: every canonical set has O(1) description (a disk,
    // an anchored rectangle piece, a triangle) — 4 words here. Its trace
    // is recomputable on demand from the description plus the sample
    // points already in memory, so the model charges descriptions, not
    // trace lists (the trace lists are transient solve scratch).
    const uint64_t kDescriptionWords = 4;
    tracker_.Charge(kDescriptionWords * store_.size());

    // --- Offline solve over (S, canonical sets). ---
    SetSystem::Builder sub_builder(static_cast<uint32_t>(sample_.size()));
    for (const auto& trace : store_.traces()) sub_builder.AddSet(trace);
    OfflineResult offline_result =
        offline_->Solve(std::move(sub_builder).Build());

    // Chosen canonical sets, as global point-id vectors.
    chosen_.clear();
    for (uint32_t cid : offline_result.cover.set_ids) {
      std::vector<uint32_t> global;
      for (uint32_t local : store_.Get(cid)) global.push_back(sample_[local]);
      std::sort(global.begin(), global.end());
      chosen_.push_back(std::move(global));
    }
    tracker_.Release(kDescriptionWords * store_.size());
    matched_.assign(chosen_.size(), false);
    unmatched_ = chosen_.size();
    phase_ = Phase::kMatch;
  }

  void FinishMatch() {
    // Every canonical set is a sub-trace of some streamed range, so all
    // must match; CHECK defends the invariant.
    SC_CHECK_EQ(unmatched_, 0u);
    tracker_.Release(sample_.size());
    diag_.uncovered_after = uncovered_.Count();
    diagnostics_.push_back(diag_);
    if (diag_.uncovered_after > 0 && ++iter_ < iterations_) {
      StartIteration();
    } else if (uncovered_.Any()) {
      phase_ = Phase::kFinalSweep;
    } else {
      Finalize();
    }
  }

  void Finalize() {
    success_ = uncovered_.None();
    tracker_.Release(uncovered_.WordCount());
    tracker_.Release(2ULL * n_);
    sol_.Deduplicate();
    phase_ = Phase::kDone;
  }

  // Configuration. greedy_ is the offline solver unless options name
  // one.
  const uint64_t k_;
  const uint32_t n_;
  const uint32_t m_;
  const GeomDataset* geometry_;
  const GeomSetCoverOptions* options_;
  GreedySolver greedy_;
  const OfflineSolver* offline_;
  const double rho_;
  const double heavy_threshold_;
  uint64_t iterations_ = 0;

  // Cross-iteration state.
  Rng rng_;
  SpaceTracker tracker_;
  DynamicBitset uncovered_;
  Cover sol_;
  std::vector<GeomIterationDiag> diagnostics_;
  uint64_t iter_ = 0;
  bool success_ = false;
  Phase phase_ = Phase::kDone;

  // Per-iteration state.
  GeomIterationDiag diag_;
  std::vector<uint32_t> sample_;
  std::vector<Point> sample_points_;
  std::unordered_map<uint32_t, uint32_t> global_to_local_;
  double w_ = 1.0;
  std::optional<RectSplitter> splitter_;  // over sample_points_
  TraceStore store_;
  std::vector<uint32_t> local_;  // per-set transient, not charged
  std::vector<std::vector<uint32_t>> chosen_;
  std::vector<bool> matched_;
  size_t unmatched_ = 0;
};

}  // namespace

GeomStreamingResult AlgGeomSCSingleGuess(PassScheduler& scheduler,
                                         const GeomDataset& geometry,
                                         uint64_t k,
                                         const GeomSetCoverOptions& options) {
  GeomGuess guess(k, scheduler.stream(), geometry, options);
  PassScheduler::SoloRun run = scheduler.DriveToCompletion(guess);
  GeomStreamingResult result = guess.TakeResult(run.logical_passes);
  result.physical_scans = run.physical_scans;
  return result;
}

GeomStreamingResult AlgGeomSC(PassScheduler& scheduler,
                              const GeomDataset& geometry,
                              const GeomSetCoverOptions& options) {
  return RunParallelGuesses(
      scheduler,
      [&](uint64_t k) {
        return std::make_unique<GeomGuess>(k, scheduler.stream(), geometry,
                                           options);
      },
      [](auto&) {});
}

}  // namespace streamcover
