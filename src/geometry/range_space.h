// Bridge between the geometric world and the abstract SetSystem world.

#ifndef STREAMCOVER_GEOMETRY_RANGE_SPACE_H_
#define STREAMCOVER_GEOMETRY_RANGE_SPACE_H_

#include <vector>

#include "geometry/primitives.h"
#include "setsystem/set_system.h"

namespace streamcover {

/// Materializes the range space (points, shapes) as an abstract
/// SetSystem: set i = trace of shape i. O(n m) time/space. It is the
/// repository every solver streams on a geometric instance — algGeomSC
/// included, which reads shape i beside set i only to split rectangles.
SetSystem BuildRangeSpace(const std::vector<Point>& points,
                          const std::vector<Shape>& shapes);

}  // namespace streamcover

#endif  // STREAMCOVER_GEOMETRY_RANGE_SPACE_H_
