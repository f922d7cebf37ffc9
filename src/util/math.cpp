#include "util/math.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/contract.hpp"

namespace braidio::util {

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  if (n == 0) throw std::invalid_argument("linspace: n must be >= 1");
  std::vector<double> out;
  out.reserve(n);
  if (n == 1) {
    out.push_back(lo);
    return out;
  }
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(lo + step * static_cast<double>(i));
  }
  out.back() = hi;  // avoid accumulated rounding at the endpoint
  return out;
}

double q_function(double x) {
  BRAIDIO_REQUIRE(!std::isnan(x), "x", x);
  return contract::check_probability(0.5 * std::erfc(x / std::sqrt(2.0)),
                                     "q_function");
}

double bessel_i0(double x) {
  const double ax = std::fabs(x);
  if (ax < 3.75) {
    // Abramowitz & Stegun 9.8.1
    const double t = x / 3.75;
    const double t2 = t * t;
    return 1.0 +
           t2 * (3.5156229 +
                 t2 * (3.0899424 +
                       t2 * (1.2067492 +
                             t2 * (0.2659732 +
                                   t2 * (0.0360768 + t2 * 0.0045813)))));
  }
  // Abramowitz & Stegun 9.8.2
  const double t = 3.75 / ax;
  const double poly =
      0.39894228 +
      t * (0.01328592 +
           t * (0.00225319 +
                t * (-0.00157565 +
                     t * (0.00916281 +
                          t * (-0.02057706 +
                               t * (0.02635537 +
                                    t * (-0.01647633 + t * 0.00392377)))))));
  return std::exp(ax) / std::sqrt(ax) * poly;
}

double marcum_q1(double a, double b) {
  if (a < 0.0 || b < 0.0) {
    throw std::domain_error("marcum_q1: arguments must be >= 0");
  }
  BRAIDIO_REQUIRE(std::isfinite(a) && std::isfinite(b), "a", a, "b", b);
  if (b == 0.0) return 1.0;
  // For large arguments fall back to a normal approximation to avoid
  // overflow in the series; Q1(a,b) ~ Q(b - a) when a*b is large.
  if (a * b > 600.0) return q_function(b - a);
  // Series: Q1(a,b) = exp(-(a^2+b^2)/2) * sum_{k=0..inf} (a/b)^k I_k(ab),
  // computed via the canonical alternating form with term recursion on the
  // equivalent Poisson-weighted chi-square representation:
  // Q1(a,b) = sum_{n=0..inf} e^{-a^2/2} (a^2/2)^n / n! * P(X_{2(n+1)} > b^2)
  // where P(chi^2_{2m} > y) = e^{-y/2} sum_{j=0..m-1} (y/2)^j / j!.
  const double ha = 0.5 * a * a;
  const double hb = 0.5 * b * b;
  double poisson = std::exp(-ha);  // n = 0 weight
  double chi_tail_term = std::exp(-hb);
  double chi_tail = chi_tail_term;  // P(chi^2_2 > b^2)
  double sum = poisson * chi_tail;
  double cumulative_poisson = poisson;
  for (int n = 1; n < 4000; ++n) {
    poisson *= ha / n;
    chi_tail_term *= hb / n;
    chi_tail += chi_tail_term;  // now P(chi^2_{2(n+1)} > b^2)
    sum += poisson * chi_tail;
    cumulative_poisson += poisson;
    if (1.0 - cumulative_poisson < 1e-15 && poisson < 1e-15) break;
  }
  return std::min(1.0, sum);
}

}  // namespace braidio::util
