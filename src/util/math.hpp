// Numeric helpers: evenly spaced sweeps and the special functions the
// analytic BER models use (Q-function, Marcum Q). Bessel I0 is the
// reference the tests check Marcum Q against.
#pragma once

#include <cstddef>
#include <vector>

namespace braidio::util {

/// `n` evenly spaced points from `lo` to `hi` inclusive. n >= 2, or n == 1
/// returning {lo}.
std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Gaussian tail probability Q(x) = P(N(0,1) > x).
double q_function(double x);

/// Modified Bessel function of the first kind, order zero.
double bessel_i0(double x);

/// First-order Marcum Q function Q1(a, b): probability that a Rician
/// envelope with parameter a exceeds threshold b. Computed by series with
/// protection against overflow for large arguments.
double marcum_q1(double a, double b);

}  // namespace braidio::util
