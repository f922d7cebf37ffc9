#include "core/braided_link.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/braidio_radio.hpp"  // core::Role alias
#include "mac/probe.hpp"
#include "obs/obs.hpp"

namespace braidio::core {

namespace {

/// Replan after this many data packets (battery drift / link dynamics).
constexpr std::uint64_t kReplanEveryPackets = 4096;
/// A slot delivering below this ratio is poor (the Sec. 4.2 "performing
/// poorly" trigger).
constexpr double kFallbackDeliveryRatio = 0.5;
/// Fallback hysteresis: consecutive poor slots that arm the fallback to
/// the active mode, and consecutive healthy slots that clear it, so one
/// bad slot cannot ping-pong the plan.
constexpr unsigned kFallbackTriggerSlots = 2;
constexpr unsigned kFallbackRecoverySlots = 2;
/// Backoff before retry n: ack_timeout * 2^min(n - 1, kBackoffMaxDoublings),
/// jittered uniformly by +/- kBackoffJitter.
constexpr unsigned kBackoffMaxDoublings = 4;
constexpr double kBackoffJitter = 0.5;

mac::Frame make_frame(mac::FrameType type, std::uint8_t src, std::uint8_t dst,
                      std::uint16_t seq, std::vector<std::uint8_t> payload) {
  mac::Frame f;
  f.type = type;
  f.source = src;
  f.destination = dst;
  f.sequence = seq;
  f.payload = std::move(payload);
  return f;
}

}  // namespace

BraidedLink::BraidedLink(hal::IRadio& device_a, hal::IRadio& device_b,
                         const RegimeMap& regimes, BraidedLinkConfig config)
    : a_(device_a),
      b_(device_b),
      regimes_(regimes),
      config_(config),
      rng_(config.seed),
      channel_(regimes.channel(),
               {config.distance_m, config.block_fading, config.extra_loss_db},
               util::Rng(config.seed ^ 0xC3A5C85C97CB3127ull)) {
  if (config_.packets_per_slot == 0) {
    throw std::invalid_argument("BraidedLink: packets_per_slot must be >= 1");
  }
  channel_.set_impairments(config_.impairments);
}

ModeCandidate BraidedLink::active_point() const {
  // The control/fallback plane rides the most conversational mode the
  // hardware offers: active when present, else the first supported mode
  // (a reader-class backend braids over backscatter alone).
  for (phy::LinkMode mode : {phy::LinkMode::Active, phy::LinkMode::PassiveRx,
                             phy::LinkMode::Backscatter}) {
    if (!regimes_.supports(mode)) continue;
    const auto rate = regimes_.best_rate(mode, config_.distance_m);
    return regimes_.candidate(mode, rate.value_or(*regimes_.lowest_rate(mode)));
  }
  throw std::logic_error("BraidedLink: backend lattice is empty");
}

util::Seconds BraidedLink::ack_timeout(const ModeCandidate& point) const {
  // The sender must stay in receive for at least one ACK airtime at the
  // operating rate plus the peer's half-duplex turnaround before it can
  // declare the exchange lost.
  mac::Frame ack;
  ack.type = mac::FrameType::Ack;
  return util::Seconds(mac::PacketChannel::airtime_s(ack, point.rate) +
                       mac::kTurnaroundS);
}

util::Seconds BraidedLink::backoff(const ModeCandidate& point,
                                   unsigned attempt) {
  const double base = ack_timeout(point).value();
  const unsigned doublings =
      std::min(attempt > 0 ? attempt - 1 : 0u, kBackoffMaxDoublings);
  const double factor = std::ldexp(1.0, static_cast<int>(doublings));
  const double jitter =
      rng_.uniform(1.0 - kBackoffJitter, 1.0 + kBackoffJitter);
  return util::Seconds(base * factor * jitter);
}

void BraidedLink::apply_fault_edges() {
  const auto* schedule = config_.impairments;
  if (schedule == nullptr) return;
  const double now = stats_.elapsed_s;
  if (now <= faults_applied_to_s_) return;
  for (const auto& event :
       schedule->activations_in(faults_applied_to_s_, now)) {
    ++stats_.fault_activations;
    obs::count(obs::Counter::FaultActivations);
    BRAIDIO_TRACE_EVENT(obs::EventType::FaultActive,
                        sim::faults::to_string(event.kind), event.start_s,
                        event.magnitude);
    if (event.kind == sim::faults::FaultKind::DistanceJump) {
      // The link moved; the channel sees it immediately, the protocol only
      // through its own Sec. 4.2 dynamics (poor slots -> fallback/replan).
      config_.distance_m = event.magnitude;
      channel_.set_distance(event.magnitude);
    }
  }
  const double a_joules = schedule->brownout_joules(
      faults_applied_to_s_, now, sim::faults::kTargetA);
  const double b_joules = schedule->brownout_joules(
      faults_applied_to_s_, now, sim::faults::kTargetB);
  if (a_joules > 0.0) a_.battery().drain(util::Joules(a_joules));
  if (b_joules > 0.0) b_.battery().drain(util::Joules(b_joules));
  if (a_.battery().empty() || b_.battery().empty()) dead_ = true;
  faults_applied_to_s_ = now;
}

bool BraidedLink::spend(const ModeCandidate& point, util::Seconds elapsed) {
  stats_.mode_airtime_s[point.label()] += elapsed.value();
  stats_.elapsed_s += elapsed.value();
  const bool a_ok = a_.advance(elapsed);
  const bool b_ok = b_.advance(elapsed);
  if (!a_ok || !b_ok) {
    dead_ = true;
    return false;
  }
  return true;
}

bool BraidedLink::send_control(mac::FrameType type,
                               std::vector<std::uint8_t> payload,
                               const ModeCandidate& point) {
  // Control frames ride the active link: best-effort with a few tries,
  // separated by the same jittered exponential backoff the data plane uses
  // so a burst outage does not hammer the channel at line rate.
  const auto frame = make_frame(type, a_.address(), b_.address(), 0,
                                std::move(payload));
  for (unsigned attempt = 0; attempt < 4 && !dead_; ++attempt) {
    apply_fault_edges();
    if (attempt > 0 && !spend(point, backoff(point, attempt))) return false;
    ++stats_.control_frames;
    const double air = mac::PacketChannel::airtime_s(frame, point.rate);
    if (!spend(point, util::Seconds(air + mac::kTurnaroundS))) return false;
    channel_.set_clock(util::Seconds(stats_.elapsed_s));
    if (channel_.transmit(frame, point.mode, point.rate)) return true;
  }
  return false;
}

void BraidedLink::setup_control_plane() {
  BRAIDIO_ENERGY_SPAN(phase_span, "control");
  const auto active = active_point();
  if (!a_.switch_to(active, Role::DataTransmitter) ||
      !b_.switch_to(active, Role::DataReceiver)) {
    dead_ = true;
    return;
  }
  // Battery status both ways (the reverse direction costs the same airtime;
  // we account it as a control frame over the same link).
  mac::BatteryStatusPayload status;
  status.remaining_joules = static_cast<float>(a_.battery().remaining_joules());
  if (!send_control(mac::FrameType::BatteryStatus, mac::serialize(status),
                    active)) {
    return;
  }
  status.remaining_joules = static_cast<float>(b_.battery().remaining_joules());
  if (!send_control(mac::FrameType::BatteryStatus, mac::serialize(status),
                    active)) {
    return;
  }
  // Probe each mode at its best rate: probe out, report back.
  std::uint16_t token = 0;
  for (const auto& candidate :
       regimes_.available_best_rate(config_.distance_m)) {
    mac::ProbePayload probe{candidate.mode, candidate.rate, ++token};
    if (!send_control(mac::FrameType::Probe, mac::serialize(probe), active)) {
      return;
    }
    mac::ProbeReportPayload report;
    report.mode = candidate.mode;
    report.rate = candidate.rate;
    report.token = token;
    report.snr_db = static_cast<float>(regimes_.channel().snr_db(
        candidate.mode, candidate.rate, config_.distance_m));
    if (!send_control(mac::FrameType::ProbeReport, mac::serialize(report),
                      active)) {
      return;
    }
  }
}

void BraidedLink::replan() {
  auto candidates = regimes_.available_best_rate(config_.distance_m);
  if (candidates.empty()) {
    dead_ = true;  // out of range entirely
    return;
  }
  plan_ = plan::plan_link(regimes_.caps(), candidates,
                          a_.battery().remaining_joules(),
                          b_.battery().remaining_joules(),
                          config_.bidirectional, plan::kInfiniteDwell);
  stats_.last_plan = plan_.summary();
  ++stats_.replans;
  obs::count(obs::Counter::Replans);
  BRAIDIO_TRACE_EVENT(obs::EventType::ModeSwitch, stats_.last_plan.c_str(),
                      stats_.elapsed_s,
                      static_cast<double>(stats_.replans));
}

std::vector<BraidedLink::SlotEntry> BraidedLink::build_schedule() const {
  // Largest-remainder apportionment of packets_per_slot across the plan.
  std::vector<SlotEntry> slots;
  const unsigned n = config_.packets_per_slot;
  std::vector<std::pair<double, std::size_t>> remainders;
  std::vector<unsigned> counts(plan_.entries.size(), 0);
  unsigned used = 0;
  for (std::size_t i = 0; i < plan_.entries.size(); ++i) {
    const double exact = plan_.entries[i].fraction * n;
    counts[i] = static_cast<unsigned>(exact);
    used += counts[i];
    remainders.push_back({exact - counts[i], i});
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t k = 0; used < n && k < remainders.size(); ++k, ++used) {
    ++counts[remainders[k].second];
  }
  for (std::size_t i = 0; i < counts.size(); ++i) {
    for (unsigned c = 0; c < counts[i]; ++c) {
      slots.push_back({plan_.entries[i].candidate, plan_.entries[i].reverse});
    }
  }
  if (slots.empty()) slots.push_back({active_point(), std::nullopt});
  return slots;
}

bool BraidedLink::transfer_packet(const ModeCandidate& point, bool forward,
                                  mac::ArqSender& sender,
                                  mac::ArqReceiver& receiver) {
  BRAIDIO_ENERGY_SPAN(phase_span, "data");
  hal::IRadio& tx = forward ? a_ : b_;
  hal::IRadio& rx = forward ? b_ : a_;
  if (!tx.switch_to(point, Role::DataTransmitter) ||
      !rx.switch_to(point, Role::DataReceiver)) {
    dead_ = true;
    return false;
  }
  const double dwell_start_s = stats_.elapsed_s;
  BRAIDIO_TRACE_EVENT(obs::EventType::DwellStart, point.label(),
                      dwell_start_s, 0.0);
  const auto end_dwell = [&] {
    const double dwell_s = stats_.elapsed_s - dwell_start_s;
    obs::observe(obs::Histogram::DwellSeconds, dwell_s);
    BRAIDIO_TRACE_EVENT(obs::EventType::DwellEnd, point.label(),
                        stats_.elapsed_s, dwell_s);
  };
  std::vector<std::uint8_t> payload(config_.payload_bytes,
                                    forward ? 0xA5 : 0x5A);
  if (!sender.submit(std::move(payload))) {
    throw std::logic_error("BraidedLink: sender busy");
  }
  ++stats_.data_packets_offered;
  while (!dead_) {
    apply_fault_edges();
    if (dead_) break;
    const auto frame = sender.frame_to_send();
    if (!frame) break;
    sender.note_transmission();
    const double air = mac::PacketChannel::airtime_s(*frame, point.rate);
    {
      // Airtime for a retransmitted frame is ARQ recovery cost, not
      // first-attempt delivery cost — attribute it separately.
      BRAIDIO_ENERGY_SPAN(arq_span,
                          sender.attempts() > 0 ? "arq-retx" : nullptr);
      if (!spend(point, util::Seconds(air + mac::kTurnaroundS))) break;
    }
    channel_.set_clock(util::Seconds(stats_.elapsed_s));
    const auto arrived = channel_.transmit(*frame, point.mode, point.rate);
    bool acked = false;
    if (arrived) {
      const auto result = receiver.on_data(*arrived);
      if (result.ack) {
        const double ack_air =
            mac::PacketChannel::airtime_s(*result.ack, point.rate);
        if (!spend(point, util::Seconds(ack_air + mac::kTurnaroundS))) break;
        channel_.set_clock(util::Seconds(stats_.elapsed_s));
        const auto ack_arrived =
            channel_.transmit(*result.ack, point.mode, point.rate);
        if (ack_arrived && sender.on_ack(*ack_arrived)) {
          acked = true;
        }
      }
    }
    if (acked) {
      ++stats_.data_packets_delivered;
      const double bits = static_cast<double>(config_.payload_bytes) * 8.0;
      if (forward) {
        stats_.payload_bits_delivered += bits;
      } else {
        stats_.payload_bits_delivered_reverse += bits;
      }
      end_dwell();
      return true;
    }
    // The exchange failed (data or ACK lost): the sender sat through its
    // full ACK-timeout listen window before deciding to act — energy that
    // is exactly what lossy links cost and that was previously uncharged.
    {
      BRAIDIO_ENERGY_SPAN(arq_span, "arq-timeout");
      if (!spend(point, ack_timeout(point))) break;
    }
    if (!sender.on_timeout()) break;  // retry budget exhausted, no retry
    // A retransmission is actually going to happen; wait out the jittered
    // exponential backoff first so sustained outages are not hammered.
    ++stats_.retransmissions;
    {
      BRAIDIO_ENERGY_SPAN(arq_span, "arq-backoff");
      if (!spend(point, backoff(point, sender.attempts()))) break;
    }
  }
  if (!dead_) ++stats_.data_packets_dropped;
  end_dwell();
  return false;
}

BraidedLinkStats BraidedLink::run(std::uint64_t packets) {
  // Root attribution scope: every joule a braided exchange drains —
  // control plane, data plane, ARQ recovery — lands under "braid/...".
  BRAIDIO_ENERGY_SPAN(exchange_span, "braid");
  stats_ = BraidedLinkStats{};
  dead_ = false;
  // (faults_applied_to_s_, t] windows: start below zero so events scripted
  // at exactly t = 0 fire on the first edge scan.
  faults_applied_to_s_ = -1.0;
  apply_fault_edges();
  setup_control_plane();
  if (!dead_) replan();

  mac::ArqSender fwd_sender(a_.address(), b_.address());
  mac::ArqReceiver fwd_receiver(b_.address());
  mac::ArqSender rev_sender(b_.address(), a_.address());
  mac::ArqReceiver rev_receiver(a_.address());

  std::uint64_t offered = 0;
  std::uint64_t since_replan = 0;
  // Sec. 4.2 fallback with hysteresis: `poor_streak` consecutive slots
  // below the delivery threshold arm the fallback, `healthy_streak`
  // consecutive slots at/above it disarm it. The streak counters keep a
  // single bad (or good) slot from ping-ponging the plan.
  bool fallback_active = false;
  unsigned poor_streak = 0;
  unsigned healthy_streak = 0;

  while (offered < packets && !dead_) {
    apply_fault_edges();
    const auto schedule = build_schedule();
    // Per-slot delivery tracking drives the fallback rule. Bidirectional
    // slots batch all forward packets before all reverse packets — the
    // Sec. 4.2 Scenario-2 pattern ("switch roles after [sending] a certain
    // amount of packets"), which amortizes the Table 5 role-switch costs
    // over the slot instead of paying them per packet.
    std::uint64_t slot_offered = 0;
    std::uint64_t slot_delivered = 0;
    const int phases = config_.bidirectional ? 2 : 1;
    for (int phase = 0; phase < phases && !dead_; ++phase) {
      const bool forward = phase == 0;
      for (const auto& scheduled : schedule) {
        if (offered >= packets || dead_) break;
        SlotEntry entry = scheduled;
        if (fallback_active) {
          entry.forward = active_point();
          if (entry.reverse) entry.reverse = active_point();
        }
        // A bidirectional slot without a reverse candidate must NOT reuse
        // the forward point: its energy split was optimized for the
        // opposite asymmetry. Fall back to the symmetric active point.
        const ModeCandidate point =
            forward ? entry.forward
                    : (entry.reverse ? *entry.reverse : active_point());
        ++offered;
        ++since_replan;
        ++slot_offered;
        const bool delivered =
            forward ? transfer_packet(point, true, fwd_sender, fwd_receiver)
                    : transfer_packet(point, false, rev_sender,
                                      rev_receiver);
        if (delivered) ++slot_delivered;
      }
    }
    if (dead_) break;
    const double ratio =
        slot_offered == 0 ? 1.0
                          : static_cast<double>(slot_delivered) /
                                static_cast<double>(slot_offered);
    if (ratio < kFallbackDeliveryRatio) {
      ++poor_streak;
      healthy_streak = 0;
      if (!fallback_active && poor_streak >= kFallbackTriggerSlots) {
        fallback_active = true;
        ++stats_.fallbacks;
        obs::count(obs::Counter::Fallbacks);
        replan();
        since_replan = 0;
      }
    } else {
      ++healthy_streak;
      poor_streak = 0;
      if (fallback_active && healthy_streak >= kFallbackRecoverySlots) {
        fallback_active = false;
      }
    }
    if (since_replan >= kReplanEveryPackets) {
      replan();
      since_replan = 0;
    }
  }
  return stats_;
}

}  // namespace braidio::core
