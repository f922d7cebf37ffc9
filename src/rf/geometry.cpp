#include "rf/geometry.hpp"

namespace braidio::rf {

double distance(const Vec2& a, const Vec2& b) { return (b - a).norm(); }

}  // namespace braidio::rf
