// SubMAC-style CSMA-CA backoff (the RIOT IEEE 802.15.4 SubMAC model).
//
// Unslotted CSMA-CA as a pure state machine: before each transmission
// attempt the node waits a random backoff of uniform_int(0, 2^BE - 1)
// unit periods, then samples the channel (CCA through the HAL); a busy
// channel raises the backoff exponent (capped at kMaxBe) and burns one of
// kMaxBackoffs retries, after which the access attempt fails and the
// frame is dropped — the macMinBE / macMaxBE / macMaxCSMABackoffs
// defaults of 802.15.4. The random draws come from the owning node's
// private deterministic stream, so contention resolution is
// byte-identical for any sweep thread count.
//
// BE reset semantics (audited against the 802.15.4 SubMAC reference,
// pinned in net_scheduler_test): begin() is the per-access-attempt reset
// — callers invoke it once per new frame AND once per ARQ retransmission,
// so both start over at (kMinBe, zero busy budget). BE persists only
// across busy() calls *within* one access attempt; a busy-CCA streak that
// eventually clears does NOT re-lower BE mid-attempt, because the attempt
// is already over once the frame hits the air. That is the standard's
// NB/BE lifecycle, not a leak.
#pragma once

#include "util/rng.hpp"

namespace braidio::net {

inline constexpr unsigned kMinBe = 3;        // macMinBE: initial exponent
inline constexpr unsigned kMaxBe = 5;        // macMaxBE: exponent cap
inline constexpr unsigned kMaxBackoffs = 4;  // macMaxCSMABackoffs
/// aUnitBackoffPeriod: one backoff slot [s] (20 symbols at 62.5 ksym/s).
inline constexpr double kUnitBackoffS = 320e-6;
/// aCCATime: one carrier-sense listen window [s] (8 symbols). Charged to
/// the sensing node's ledger per CCA sample.
inline constexpr double kCcaWindowS = 128e-6;

class CsmaCa {
 public:
  /// Arm for a new frame: backoff exponent and busy budget reset.
  void begin();

  /// Draw the next random backoff delay [s] from `rng`.
  double backoff_s(util::Rng& rng);

  /// Record a busy CCA: raises BE and burns one retry. Returns false
  /// when the busy budget is exhausted (channel-access failure).
  bool busy();

  unsigned backoffs() const { return backoffs_; }
  /// Current backoff exponent (kMinBe after begin(), raised by busy()).
  unsigned be() const { return be_; }

 private:
  unsigned be_ = kMinBe;
  unsigned backoffs_ = 0;
};

}  // namespace braidio::net
