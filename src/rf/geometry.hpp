// 2-D geometry primitives for antenna placement and field simulations.
#pragma once

#include <cmath>

namespace braidio::rf {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2 operator+(const Vec2& o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(const Vec2& o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr bool operator==(const Vec2& o) const = default;

  double norm() const { return std::hypot(x, y); }
};

/// Euclidean distance between two points.
double distance(const Vec2& a, const Vec2& b);

}  // namespace braidio::rf
