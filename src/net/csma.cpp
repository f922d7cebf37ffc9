#include "net/csma.hpp"

#include <algorithm>

namespace braidio::net {

void CsmaCa::begin() {
  be_ = kMinBe;
  backoffs_ = 0;
}

double CsmaCa::backoff_s(util::Rng& rng) {
  const std::uint64_t slots =
      rng.uniform_int(0, (std::uint64_t{1} << be_) - 1);
  return static_cast<double>(slots) * kUnitBackoffS;
}

bool CsmaCa::busy() {
  ++backoffs_;
  be_ = std::min(be_ + 1, kMaxBe);
  return backoffs_ <= kMaxBackoffs;
}

}  // namespace braidio::net
