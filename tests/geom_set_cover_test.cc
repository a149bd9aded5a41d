// Tests for algGeomSC (Figure 4.1 / Theorem 4.6): feasibility for all
// three shape classes, pass bound 3/delta + 1, O~(n) space behaviour,
// and graceful handling of the Figure 1.2 pathology.

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/geom_generators.h"
#include "geometry/geom_set_cover.h"
#include "geometry/range_space.h"
#include "offline/greedy.h"
#include "stream/pass_scheduler.h"

namespace streamcover {
namespace {

GeomInstance MakeInstance(ShapeClass cls, uint64_t seed,
                          uint32_t n = 400, uint32_t m = 800,
                          uint32_t k = 8) {
  Rng rng(seed);
  GeomPlantedOptions options;
  options.num_points = n;
  options.num_shapes = m;
  options.cover_size = k;
  options.shape_class = cls;
  return GeneratePlantedGeom(options, rng);
}

// Runs algGeomSC over the range-space stream of (points, shapes); k > 0
// runs only that guess.
GeomStreamingResult Solve(const std::vector<Point>& points,
                          const std::vector<Shape>& shapes,
                          const GeomSetCoverOptions& options,
                          uint64_t k = 0) {
  const GeomDataset geometry{points, shapes};
  SetSystem ranges = BuildRangeSpace(points, shapes);
  SetStream stream(&ranges);
  PassScheduler scheduler(stream);
  return k > 0 ? AlgGeomSCSingleGuess(scheduler, geometry, k, options)
               : AlgGeomSC(scheduler, geometry, options);
}

class GeomSetCoverShapeTest
    : public ::testing::TestWithParam<std::tuple<ShapeClass, uint64_t>> {};

TEST_P(GeomSetCoverShapeTest, ProducesFeasibleCover) {
  auto [cls, seed] = GetParam();
  GeomInstance inst = MakeInstance(cls, seed);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  options.seed = seed;
  GeomStreamingResult result = Solve(inst.points, inst.shapes, options);
  ASSERT_TRUE(result.success);
  SetSystem system = BuildRangeSpace(inst.points, inst.shapes);
  EXPECT_TRUE(IsFullCover(system, result.cover));
}

TEST_P(GeomSetCoverShapeTest, ApproximationNearPlanted) {
  auto [cls, seed] = GetParam();
  GeomInstance inst = MakeInstance(cls, seed);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  options.seed = seed;
  GeomStreamingResult result = Solve(inst.points, inst.shapes, options);
  ASSERT_TRUE(result.success);
  // O(rho)-approximation with rho = ln n greedy: generous constant.
  double rho = std::log(inst.points.size()) + 1;
  EXPECT_LE(result.cover.size(),
            4.0 * rho * inst.planted_cover.size());
}

INSTANTIATE_TEST_SUITE_P(
    ShapesSeeds, GeomSetCoverShapeTest,
    ::testing::Combine(::testing::Values(ShapeClass::kDisk,
                                         ShapeClass::kRect,
                                         ShapeClass::kFatTriangle),
                       ::testing::Values(1, 2)));

TEST(GeomSetCoverTest, PassBoundPerGuess) {
  GeomInstance inst = MakeInstance(ShapeClass::kDisk, 5);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  GeomStreamingResult result =
      Solve(inst.points, inst.shapes, options, /*k=*/8);
  // 3 passes per iteration, <= 1/delta iterations, + final sweep.
  EXPECT_LE(result.passes,
            3 * static_cast<uint64_t>(std::ceil(1.0 / options.delta)) + 1);
}

TEST(GeomSetCoverTest, SpaceIsNearLinearInPoints) {
  // Theorem 4.6: O~(n) space even with m >> n.
  GeomInstance inst =
      MakeInstance(ShapeClass::kDisk, 6, /*n=*/300, /*m=*/3000, /*k=*/6);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  GeomStreamingResult result = Solve(inst.points, inst.shapes, options);
  ASSERT_TRUE(result.success);
  // The heaviest guess's footprint stays within polylog(n) * n words.
  const double n = inst.points.size();
  const double polylog = std::pow(std::log2(n), 3);
  EXPECT_LT(result.space_words_max_guess,
            static_cast<uint64_t>(8.0 * n * polylog));
}

TEST(GeomSetCoverTest, HandlesFigure12Pathology) {
  // Theta(n^2) distinct shallow rectangles: canonical splitting must
  // keep the stored family small and the cover near OPT = 2.
  GeomInstance inst = GenerateFigure12(64);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  GeomStreamingResult result = Solve(inst.points, inst.shapes, options);
  ASSERT_TRUE(result.success);
  SetSystem system = BuildRangeSpace(inst.points, inst.shapes);
  EXPECT_TRUE(IsFullCover(system, result.cover));
  // Canonical family stays near-linear in every iteration.
  for (const auto& diag : result.diagnostics) {
    EXPECT_LE(diag.canonical_sets, 4ull * inst.points.size());
  }
}

TEST(GeomSetCoverTest, DeterministicPerSeed) {
  GeomInstance inst = MakeInstance(ShapeClass::kRect, 7);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  options.seed = 3;
  GeomStreamingResult a = Solve(inst.points, inst.shapes, options);
  GeomStreamingResult b = Solve(inst.points, inst.shapes, options);
  EXPECT_EQ(a.cover.set_ids, b.cover.set_ids);
}

TEST(GeomSetCoverTest, DiagnosticsTrackResidualShrink) {
  GeomInstance inst = MakeInstance(ShapeClass::kDisk, 8);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  GeomStreamingResult result =
      Solve(inst.points, inst.shapes, options, /*k=*/8);
  ASSERT_FALSE(result.diagnostics.empty());
  for (const auto& diag : result.diagnostics) {
    EXPECT_LE(diag.uncovered_after, diag.uncovered_before);
  }
}

TEST(GeomSetCoverTest, SinglePointSingleShape) {
  std::vector<Point> points = {{1, 1}};
  std::vector<Shape> shapes = {Disk{{1, 1}, 2}};
  GeomSetCoverOptions options;
  GeomStreamingResult result = Solve(points, shapes, options);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.cover.size(), 1u);
}

}  // namespace
}  // namespace streamcover
