#include "circuits/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/contract.hpp"

namespace braidio::circuits {

double TransientResult::steady_state(NodeId node, double fraction) const {
  if (samples.empty()) throw std::logic_error("steady_state: empty result");
  const auto n = samples.size();
  const auto start = n - std::max<std::size_t>(
                             1, static_cast<std::size_t>(
                                    fraction * static_cast<double>(n)));
  double sum = 0.0;
  for (std::size_t i = start; i < n; ++i) {
    sum += samples[i].node_volts.at(node);
  }
  return sum / static_cast<double>(n - start);
}

double TransientResult::ripple(NodeId node, double fraction) const {
  if (samples.empty()) throw std::logic_error("ripple: empty result");
  const auto n = samples.size();
  const auto start = n - std::max<std::size_t>(
                             1, static_cast<std::size_t>(
                                    fraction * static_cast<double>(n)));
  double lo = samples[start].node_volts.at(node);
  double hi = lo;
  for (std::size_t i = start; i < n; ++i) {
    const double v = samples[i].node_volts.at(node);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi - lo;
}

TransientSimulator::TransientSimulator(const Netlist& netlist,
                                       TransientOptions options)
    : options_(options) {
  if (!(options_.timestep_s > 0.0)) {
    throw std::invalid_argument("TransientSimulator: timestep must be > 0");
  }
  BRAIDIO_REQUIRE(std::isfinite(options_.timestep_s), "timestep_s",
                  options_.timestep_s);
  BRAIDIO_REQUIRE(options_.abs_tolerance > 0.0 && options_.gmin >= 0.0 &&
                      options_.max_newton_iterations > 0 &&
                      options_.max_junction_step > 0.0,
                  "abs_tolerance", options_.abs_tolerance, "gmin",
                  options_.gmin, "max_newton_iterations",
                  options_.max_newton_iterations, "max_junction_step",
                  options_.max_junction_step);
  build_primitives(netlist);
}

void TransientSimulator::build_primitives(const Netlist& netlist) {
  node_count_ = netlist.node_count();
  resistors_ = netlist.resistors();
  capacitors_ = netlist.capacitors();
  sources_ = netlist.sources();
  // Diodes with series resistance get an internal junction node.
  for (const auto& d : netlist.diodes()) {
    NodeId anode = d.anode;
    if (d.series_resistance > 0.0) {
      const NodeId internal = node_count_++;
      resistors_.push_back({d.anode, internal, d.series_resistance});
      anode = internal;
    }
    diodes_.push_back({anode, d.cathode, d.saturation_current,
                       d.emission_coefficient * d.thermal_voltage});
  }
  unknown_count_ = (node_count_ - 1) + sources_.size();
  if (unknown_count_ == 0) {
    throw std::invalid_argument("TransientSimulator: empty circuit");
  }
}

void TransientSimulator::solve_dense(std::vector<double>& matrix,
                                     std::vector<double>& rhs,
                                     std::vector<double>& x) const {
  const std::size_t n = unknown_count_;
  // Gaussian elimination with partial pivoting; matrix is row-major n x n.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::fabs(matrix[col * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(matrix[r * n + col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) {
      throw std::runtime_error(
          "TransientSimulator: singular matrix (floating node?)");
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(matrix[pivot * n + c], matrix[col * n + c]);
      }
      std::swap(rhs[pivot], rhs[col]);
    }
    const double diag = matrix[col * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = matrix[r * n + col] / diag;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) {
        matrix[r * n + c] -= factor * matrix[col * n + c];
      }
      rhs[r] -= factor * rhs[col];
    }
  }
  x.assign(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = rhs[ri];
    for (std::size_t c = ri + 1; c < n; ++c) {
      sum -= matrix[ri * n + c] * x[c];
    }
    x[ri] = sum / matrix[ri * n + ri];
  }
}

TransientResult TransientSimulator::run(double duration_s,
                                        std::size_t record_every) {
  if (!(duration_s > 0.0)) {
    throw std::invalid_argument("run: duration must be > 0");
  }
  BRAIDIO_REQUIRE(std::isfinite(duration_s), "duration_s", duration_s);
  if (record_every == 0) record_every = 1;

  const std::size_t n = unknown_count_;
  const std::size_t nv = node_count_ - 1;  // voltage unknowns
  const double h = options_.timestep_s;

  // Unknown ordering: node voltages 1..node_count-1, then source currents.
  // index(node) = node - 1.
  auto vidx = [](NodeId node) { return node - 1; };

  // State: node voltages (index by NodeId, ground = 0).
  std::vector<double> volts(node_count_, 0.0);

  // Apply capacitor initial conditions approximately by biasing the first
  // solve: v(a) - v(b) = initial. We seed node voltages for grounded caps.
  for (const auto& c : capacitors_) {
    if (c.initial_volts != 0.0) {
      if (c.b == 0) {
        volts[c.a] = c.initial_volts;
      } else if (c.a == 0) {
        volts[c.b] = -c.initial_volts;
      }
    }
  }

  std::vector<double> prev_volts = volts;
  std::vector<double> matrix(n * n);
  std::vector<double> rhs(n);
  std::vector<double> x(n);

  TransientResult result;
  const auto steps =
      static_cast<std::size_t>(std::ceil(duration_s / h));
  result.samples.reserve(steps / record_every + 2);

  auto record = [&](double t) {
    TransientSample s;
    s.time_s = t;
    s.node_volts.assign(volts.begin(), volts.begin() +
                                           static_cast<std::ptrdiff_t>(
                                               node_count_));
    result.samples.push_back(std::move(s));
  };
  record(0.0);

  for (std::size_t step = 1; step <= steps; ++step) {
    const double t = static_cast<double>(step) * h;
    prev_volts = volts;

    bool converged = false;
    for (int it = 0; it < options_.max_newton_iterations; ++it) {
      std::fill(matrix.begin(), matrix.end(), 0.0);
      std::fill(rhs.begin(), rhs.end(), 0.0);

      auto stamp_conductance = [&](NodeId a, NodeId b, double g) {
        if (a != 0) matrix[vidx(a) * n + vidx(a)] += g;
        if (b != 0) matrix[vidx(b) * n + vidx(b)] += g;
        if (a != 0 && b != 0) {
          matrix[vidx(a) * n + vidx(b)] -= g;
          matrix[vidx(b) * n + vidx(a)] -= g;
        }
      };
      // Current `amps` flowing out of node a into node b through the element.
      auto stamp_current = [&](NodeId a, NodeId b, double amps) {
        if (a != 0) rhs[vidx(a)] -= amps;
        if (b != 0) rhs[vidx(b)] += amps;
      };

      for (const auto& r : resistors_) {
        stamp_conductance(r.a, r.b, 1.0 / r.ohms);
      }
      for (const auto& c : capacitors_) {
        const double geq = c.farads / h;
        const double v_prev = prev_volts[c.a] - prev_volts[c.b];
        stamp_conductance(c.a, c.b, geq);
        // i = geq * (v - v_prev): companion source pushes geq*v_prev back in.
        stamp_current(c.a, c.b, -geq * v_prev);
      }
      for (const auto& d : diodes_) {
        const double v = volts[d.anode] - volts[d.cathode];
        // Clamp the exponent so the companion stays finite far from the
        // solution; step limiting below keeps iterations well-behaved.
        const double e = std::exp(std::min(v / d.n_vt, 80.0));
        const double id = d.is * (e - 1.0);
        const double gd = d.is * e / d.n_vt + options_.gmin;
        stamp_conductance(d.anode, d.cathode, gd);
        stamp_current(d.anode, d.cathode, id - gd * v);
      }
      for (std::size_t k = 0; k < sources_.size(); ++k) {
        const auto& src = sources_[k];
        const std::size_t row = nv + k;
        if (src.positive != 0) {
          matrix[vidx(src.positive) * n + row] += 1.0;
          matrix[row * n + vidx(src.positive)] += 1.0;
        }
        if (src.negative != 0) {
          matrix[vidx(src.negative) * n + row] -= 1.0;
          matrix[row * n + vidx(src.negative)] -= 1.0;
        }
        rhs[row] = src.waveform(t);
      }

      solve_dense(matrix, rhs, x);

      // Junction-limited update.
      double max_delta = 0.0;
      for (NodeId node = 1; node < node_count_; ++node) {
        double next = x[vidx(node)];
        double delta = next - volts[node];
        max_delta = std::max(max_delta, std::fabs(delta));
      }
      double limit_scale = 1.0;
      for (const auto& d : diodes_) {
        const double v_old = volts[d.anode] - volts[d.cathode];
        const double v_new = (d.anode ? x[vidx(d.anode)] : 0.0) -
                             (d.cathode ? x[vidx(d.cathode)] : 0.0);
        const double dv = std::fabs(v_new - v_old);
        if (dv > options_.max_junction_step) {
          limit_scale = std::min(limit_scale, options_.max_junction_step / dv);
        }
      }
      for (NodeId node = 1; node < node_count_; ++node) {
        volts[node] += limit_scale * (x[vidx(node)] - volts[node]);
      }
      if (limit_scale == 1.0 && max_delta < options_.abs_tolerance) {
        converged = true;
        break;
      }
    }
    if (!converged) {
      throw std::runtime_error(
          "TransientSimulator: Newton did not converge at t=" +
          std::to_string(t));
    }
    // A converged Newton step must leave every node voltage finite; a NaN
    // here means the matrix solve silently produced nonsense.
    for (NodeId node = 1; node < node_count_; ++node) {
      BRAIDIO_INVARIANT(std::isfinite(volts[node]), "t", t, "node", node,
                        "volts", volts[node]);
    }
    if (step % record_every == 0 || step == steps) record(t);
  }
  return result;
}

}  // namespace braidio::circuits
