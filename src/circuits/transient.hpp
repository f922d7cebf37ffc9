// Nonlinear transient circuit simulator.
//
// Modified nodal analysis with backward-Euler companion models for
// capacitors, Newton-Raphson linearization for diodes (with junction-voltage
// step limiting for convergence), and dense Gaussian elimination — adequate
// for the small (tens of nodes) analog networks in the Braidio receive
// chain. The same approach, at small scale, that SPICE-family tools use.
#pragma once

#include <vector>

#include "circuits/netlist.hpp"

namespace braidio::circuits {

struct TransientOptions {
  double timestep_s = 1e-9;
  double abs_tolerance = 1e-9;     // Newton convergence on |dx|
  int max_newton_iterations = 200;
  double gmin = 1e-12;             // convergence shunt across diodes
  double max_junction_step = 0.3;  // volts per Newton iteration
};

/// One sampled point of the solution: time plus all node voltages
/// (index = NodeId; [0] is ground = 0).
struct TransientSample {
  double time_s = 0.0;
  std::vector<double> node_volts;
};

struct TransientResult {
  std::vector<TransientSample> samples;

  /// Mean of a node voltage over the final `fraction` of the run
  /// (steady-state estimate).
  double steady_state(NodeId node, double fraction = 0.2) const;

  /// Peak-to-peak ripple of a node over the final `fraction` of the run.
  double ripple(NodeId node, double fraction = 0.2) const;
};

class TransientSimulator {
 public:
  explicit TransientSimulator(const Netlist& netlist,
                              TransientOptions options = {});

  /// Integrate from t = 0 to `duration_s`, recording every `record_every`-th
  /// step (1 = every step). Throws std::runtime_error if Newton fails to
  /// converge at any timestep.
  TransientResult run(double duration_s, std::size_t record_every = 1);

 private:
  struct DiodeStamp {
    NodeId anode;
    NodeId cathode;
    double is;
    double n_vt;  // emission coefficient * thermal voltage
  };

  void build_primitives(const Netlist& netlist);
  void solve_dense(std::vector<double>& matrix, std::vector<double>& rhs,
                   std::vector<double>& x) const;

  TransientOptions options_;
  std::size_t node_count_ = 0;    // including ground
  std::size_t unknown_count_ = 0; // (nodes - 1) + sources

  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<DiodeStamp> diodes_;
  std::vector<VoltageSource> sources_;
};

}  // namespace braidio::circuits
