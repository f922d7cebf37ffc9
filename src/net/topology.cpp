#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/contract.hpp"

namespace braidio::net {

namespace {

constexpr double kPi = 3.14159265358979323846;
/// Golden-angle increment for the sunflower star layout [rad].
constexpr double kGoldenAngle = kPi * (3.0 - 2.2360679774997896);

void check(const TopologyConfig& config) {
  if (config.nodes == 0) {
    throw std::invalid_argument("net::build_topology: need >= 1 tag");
  }
  if (!(config.extent_m > 0.0) || !std::isfinite(config.extent_m)) {
    throw std::invalid_argument(
        "net::build_topology: extent_m must be finite and > 0");
  }
  if (!(config.link_range_m > 0.0) || !std::isfinite(config.link_range_m)) {
    throw std::invalid_argument(
        "net::build_topology: link_range_m must be finite and > 0");
  }
}

/// Positions bucketed into a dense grid of square cells whose side is
/// at least the link range, so every in-range neighbour of a node sits
/// in its own cell or one of the eight around it. Each cell lists its
/// nodes in index order (a counting sort).
class CellGrid {
 public:
  CellGrid(const std::vector<Vec2>& positions, double link_range_m) {
    const std::size_t n = positions.size();
    min_x_ = positions[0].x_m;
    min_y_ = positions[0].y_m;
    double max_x = min_x_, max_y = min_y_;
    for (const Vec2& p : positions) {
      min_x_ = std::min(min_x_, p.x_m);
      max_x = std::max(max_x, p.x_m);
      min_y_ = std::min(min_y_, p.y_m);
      max_y = std::max(max_y, p.y_m);
    }
    // A hair over the range, so a pair exactly link_range_m apart cannot
    // round into cells two apart. Doubling keeps the array near 4n cells
    // when the range is short against the box.
    side_ = link_range_m * (1.0 + 1e-6);
    const double max_cells = 4.0 * static_cast<double>(n) + 16.0;
    while (span(max_x - min_x_) * span(max_y - min_y_) > max_cells) {
      side_ *= 2.0;
    }
    cols_ = static_cast<std::size_t>(span(max_x - min_x_));
    rows_ = static_cast<std::size_t>(span(max_y - min_y_));
    cell_of_.resize(n);
    start_.assign(cols_ * rows_ + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      cell_of_[i] = col(positions[i].x_m) + cols_ * row(positions[i].y_m);
      ++start_[cell_of_[i] + 1];
    }
    for (std::size_t c = 0; c < cols_ * rows_; ++c) {
      start_[c + 1] += start_[c];
    }
    end_.assign(start_.begin(), start_.end() - 1);
    members_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      members_[end_[cell_of_[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  /// Calls `visit(j)` for every node listed in the 3x3 cells around
  /// node `at`, after dropping from those cells each node `keep(j)`
  /// rejects (so a routed node is scanned at most once more).
  template <typename Keep, typename Visit>
  void for_each_near(std::uint32_t at, Keep keep, Visit visit) {
    const std::size_t cx = cell_of_[at] % cols_;
    const std::size_t cy = cell_of_[at] / cols_;
    for (std::size_t y = cy == 0 ? 0 : cy - 1; y <= cy + 1 && y < rows_;
         ++y) {
      for (std::size_t x = cx == 0 ? 0 : cx - 1; x <= cx + 1 && x < cols_;
           ++x) {
        const std::size_t c = x + cols_ * y;
        std::size_t kept = start_[c];
        for (std::size_t k = start_[c]; k < end_[c]; ++k) {
          const std::uint32_t j = members_[k];
          if (!keep(j)) continue;
          members_[kept++] = j;
          visit(j);
        }
        end_[c] = kept;
      }
    }
  }

 private:
  /// Cells needed to cover `extent` metres along one axis.
  double span(double extent) const { return std::floor(extent / side_) + 1; }
  std::size_t col(double x) const {
    return std::min(static_cast<std::size_t>((x - min_x_) / side_),
                    cols_ - 1);
  }
  std::size_t row(double y) const {
    return std::min(static_cast<std::size_t>((y - min_y_) / side_),
                    rows_ - 1);
  }

  double min_x_ = 0.0, min_y_ = 0.0;
  double side_ = 0.0;
  std::size_t cols_ = 1, rows_ = 1;
  std::vector<std::size_t> cell_of_;
  std::vector<std::size_t> start_, end_;  // cell c lists [start_, end_)
  std::vector<std::uint32_t> members_;
};

/// BFS from the hub over the undirected range graph. Each frontier node
/// takes its unrouted in-range neighbours in index order, so route ties
/// resolve to the lowest-index parent. The cell grid keeps the candidate
/// scan to the 3x3 cells around a node: O(n) for a bounded density.
void bfs_routes(Topology& topo, double link_range_m) {
  const std::size_t n = topo.positions.size();
  topo.next_hop.assign(n, kNoRoute);
  topo.hops.assign(n, kNoRoute);
  topo.next_hop[0] = 0;
  topo.hops[0] = 0;
  CellGrid cells(topo.positions, link_range_m);
  std::vector<std::uint32_t> frontier{0};
  std::vector<std::uint32_t> next;
  std::vector<std::uint32_t> found;
  const auto unrouted = [&](std::uint32_t j) {
    return topo.hops[j] == kNoRoute;
  };
  while (!frontier.empty()) {
    next.clear();
    for (const std::uint32_t at : frontier) {
      found.clear();
      cells.for_each_near(at, unrouted, [&](std::uint32_t j) {
        if (distance_m(topo.positions[at], topo.positions[j]) >
            link_range_m) {
          return;
        }
        found.push_back(j);
      });
      std::sort(found.begin(), found.end());
      for (const std::uint32_t j : found) {
        topo.hops[j] = topo.hops[at] + 1;
        topo.next_hop[j] = at;
        next.push_back(j);
      }
    }
    frontier.swap(next);
  }
}

Topology build_star(const TopologyConfig& config) {
  Topology topo;
  topo.positions.reserve(config.nodes + 1);
  topo.positions.push_back({0.0, 0.0});  // hub
  // Sunflower layout: uniform density over the disc, deterministic.
  const double n = static_cast<double>(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    const double k = static_cast<double>(i) + 0.5;
    const double r = config.extent_m * std::sqrt(k / n);
    const double theta = kGoldenAngle * static_cast<double>(i);
    topo.positions.push_back({r * std::cos(theta), r * std::sin(theta)});
  }
  // A star is single-hop by construction: every tag talks straight to
  // the hub's carrier, whatever the multi-hop link range says.
  const std::size_t total = topo.positions.size();
  topo.next_hop.assign(total, 0);
  topo.hops.assign(total, 1);
  topo.hops[0] = 0;
  return topo;
}

Topology build_grid(const TopologyConfig& config) {
  Topology topo;
  const std::size_t total = config.nodes + 1;
  const std::size_t side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(total))));
  const double pitch =
      side > 1 ? config.extent_m / static_cast<double>(side - 1) : 0.0;
  // Hub first (node 0) at the lattice cell nearest the center, then the
  // remaining cells in row-major order.
  const std::size_t hub_cell = (side / 2) * side + side / 2;
  topo.positions.reserve(total);
  const auto cell_pos = [&](std::size_t cell) {
    const double x = static_cast<double>(cell % side) * pitch;
    const double y = static_cast<double>(cell / side) * pitch;
    return Vec2{x, y};
  };
  topo.positions.push_back(cell_pos(hub_cell < total ? hub_cell : 0));
  for (std::size_t cell = 0; cell < total && topo.positions.size() < total;
       ++cell) {
    if (cell == hub_cell) continue;
    topo.positions.push_back(cell_pos(cell));
  }
  // Multi-hop routes between lattice neighbors: the link range is at
  // least one pitch by construction so the graph stays connected.
  const double range =
      std::max(config.link_range_m, pitch * 1.05);
  bfs_routes(topo, range);
  return topo;
}

Topology build_random_geometric(const TopologyConfig& config,
                                util::Rng& rng) {
  Topology topo;
  topo.positions.reserve(config.nodes + 1);
  topo.positions.push_back({0.0, 0.0});  // hub at the box center
  for (std::size_t i = 0; i < config.nodes; ++i) {
    const double x = rng.uniform(-config.extent_m, config.extent_m);
    const double y = rng.uniform(-config.extent_m, config.extent_m);
    topo.positions.push_back({x, y});
  }
  bfs_routes(topo, config.link_range_m);
  return topo;
}

}  // namespace

double distance_m(const Vec2& a, const Vec2& b) {
  const double dx = a.x_m - b.x_m;
  const double dy = a.y_m - b.y_m;
  return std::sqrt(dx * dx + dy * dy);
}

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::Star: return "star";
    case TopologyKind::Grid: return "grid";
    case TopologyKind::RandomGeometric: return "random-geometric";
  }
  return "?";
}

std::optional<TopologyKind> parse_topology(const std::string& name) {
  if (name == "star") return TopologyKind::Star;
  if (name == "grid") return TopologyKind::Grid;
  if (name == "random-geometric" || name == "rgg") {
    return TopologyKind::RandomGeometric;
  }
  return std::nullopt;
}

std::size_t Topology::reachable() const {
  std::size_t count = 0;
  for (const std::uint32_t h : hops) count += h != kNoRoute ? 1 : 0;
  return count;
}

std::uint32_t Topology::max_hops() const {
  std::uint32_t best = 0;
  for (const std::uint32_t h : hops) {
    if (h != kNoRoute && h > best) best = h;
  }
  return best;
}

Topology build_topology(const TopologyConfig& config, util::Rng& rng) {
  check(config);
  BRAIDIO_REQUIRE(config.nodes < kNoRoute, "nodes", config.nodes);
  switch (config.kind) {
    case TopologyKind::Star: return build_star(config);
    case TopologyKind::Grid: return build_grid(config);
    case TopologyKind::RandomGeometric:
      return build_random_geometric(config, rng);
  }
  throw std::invalid_argument("net::build_topology: unknown kind");
}

}  // namespace braidio::net
