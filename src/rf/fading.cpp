#include "rf/fading.hpp"

#include <cmath>
#include <stdexcept>

namespace braidio::rf {

CoherentChannelProcess::CoherentChannelProcess(double coherence_time_s,
                                               double sample_interval_s,
                                               std::complex<double> mean,
                                               double scatter_stddev,
                                               util::Rng rng)
    : mean_(mean),
      stddev_(scatter_stddev),
      coherence_time_s_(coherence_time_s),
      rng_(rng) {
  if (!(coherence_time_s > 0.0) || !(sample_interval_s > 0.0)) {
    throw std::domain_error("CoherentChannelProcess: times must be > 0");
  }
  if (scatter_stddev < 0.0) {
    throw std::domain_error("CoherentChannelProcess: negative stddev");
  }
  rho_ = std::exp(-sample_interval_s / coherence_time_s);
}

namespace {

std::complex<double> gauss_markov_step(std::complex<double> scatter,
                                       double rho, double stddev,
                                       util::Rng& rng) {
  const double innov = std::sqrt(1.0 - rho * rho) * stddev;
  const std::complex<double> w{rng.gaussian() * innov / std::sqrt(2.0),
                               rng.gaussian() * innov / std::sqrt(2.0)};
  return scatter * rho + w;
}

}  // namespace

std::complex<double> CoherentChannelProcess::advance(double dt_s) {
  if (!(dt_s >= 0.0) || !std::isfinite(dt_s)) {
    throw std::domain_error("CoherentChannelProcess: dt must be >= 0");
  }
  const double rho = std::exp(-dt_s / coherence_time_s_);
  scatter_ = gauss_markov_step(scatter_, rho, stddev_, rng_);
  return current();
}

void CoherentChannelProcess::reset_stationary() {
  const double sigma = stddev_ / std::sqrt(2.0);
  scatter_ = {rng_.gaussian() * sigma, rng_.gaussian() * sigma};
}

}  // namespace braidio::rf
