#include "mac/packet_channel.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/contract.hpp"
#include "util/units.hpp"

namespace braidio::mac {

PacketChannel::PacketChannel(const hal::ChannelModel& channel,
                             PacketChannelConfig config, util::Rng rng)
    : channel_(channel), config_(config), rng_(rng) {
  if (config_.distance_m < 0.0) {
    throw std::invalid_argument("PacketChannel: negative distance");
  }
  BRAIDIO_REQUIRE(
      std::isfinite(config_.distance_m) && std::isfinite(config_.extra_loss_db),
      "distance_m", config_.distance_m, "extra_loss_db", config_.extra_loss_db);
}

double PacketChannel::airtime_s(const Frame& frame, hal::Bitrate rate) {
  return airtime_s(frame.wire_bits(), rate);
}

double PacketChannel::airtime_s(std::size_t wire_bits, hal::Bitrate rate) {
  return static_cast<double>(wire_bits) / hal::bitrate_bps(rate);
}

void PacketChannel::set_distance(double distance_m) {
  if (distance_m < 0.0) {
    throw std::invalid_argument("PacketChannel: negative distance");
  }
  BRAIDIO_REQUIRE(std::isfinite(distance_m), "distance_m", distance_m);
  config_.distance_m = distance_m;
}

void PacketChannel::set_clock(util::Seconds sim_time) {
  const double sim_s = sim_time.value();
  BRAIDIO_REQUIRE(std::isfinite(sim_s) && sim_s >= clock_s_, "sim_s", sim_s,
                  "clock_s", clock_s_);
  clock_s_ = sim_s;
}

double PacketChannel::fade_power_gain() {
  if (!fade_) {
    fade_.emplace(kFadeCoherenceS, kFadeCoherenceS,
                  std::complex<double>(0.0, 0.0), 1.0, rng_.fork());
    fade_->reset_stationary();
  } else {
    fade_->advance(std::max(clock_s_ - fade_clock_s_, 0.0));
  }
  fade_clock_s_ = clock_s_;
  return std::norm(fade_->current());
}

double PacketChannel::fault_fade_power_gain(
    const sim::faults::ImpairmentState& state) {
  const double coherence = std::max(state.fade_coherence_s, 1e-9);
  if (!fault_fade_ || fault_fade_coherence_s_ != coherence) {
    fault_fade_.emplace(coherence, coherence, std::complex<double>(0.0, 0.0),
                        1.0, rng_.fork());
    fault_fade_->reset_stationary();
    fault_fade_coherence_s_ = coherence;
  } else {
    fault_fade_->advance(std::max(clock_s_ - fault_fade_clock_s_, 0.0));
  }
  fault_fade_clock_s_ = clock_s_;
  // Unit-mean Rayleigh gain scaled down by the burst's mean depth.
  return std::norm(fault_fade_->current()) *
         util::db_to_linear(-state.fade_depth_db);
}

std::optional<Frame> PacketChannel::transmit(const Frame& frame,
                                             hal::LinkMode mode,
                                             hal::Bitrate rate) {
  sim::faults::ImpairmentState impairment;
  if (impairments_ != nullptr) {
    impairment = impairments_->state_at(clock_s_);
  }
  auto bytes = serialize(frame);
  obs::count(obs::Counter::PacketsTx);
  BRAIDIO_TRACE_EVENT(obs::EventType::PacketTx, hal::to_string(mode),
                      obs::no_sim_time(),
                      static_cast<double>(bytes.size()));
  if (impairment.carrier_dropout) {
    // Carrier gone: nothing reaches the receiver, deterministically.
    obs::count(obs::Counter::PacketsDropped);
    BRAIDIO_TRACE_EVENT(obs::EventType::PacketDrop, hal::to_string(mode),
                        obs::no_sim_time(),
                        static_cast<double>(bytes.size()));
    return std::nullopt;
  }
  double snr_db = channel_.snr_db(mode, rate, config_.distance_m) -
                  config_.extra_loss_db - impairment.extra_loss_db;
  if (config_.block_fading) {
    snr_db += util::linear_to_db(std::max(fade_power_gain(), 1e-9));
  }
  if (impairment.fade_active) {
    snr_db += util::linear_to_db(
        std::max(fault_fade_power_gain(impairment), 1e-9));
  }
  const double ber = channel_.ber_from_snr_db(mode, snr_db);
  if (ber > 0.0) {
    for (auto& byte : bytes) {
      for (int bit = 0; bit < 8; ++bit) {
        if (rng_.bernoulli(ber)) byte ^= static_cast<std::uint8_t>(1u << bit);
      }
    }
  }
  auto parsed = deserialize(bytes);
  if (parsed) {
    obs::count(obs::Counter::PacketsRx);
    BRAIDIO_TRACE_EVENT(obs::EventType::PacketRx, hal::to_string(mode),
                        obs::no_sim_time(),
                        static_cast<double>(bytes.size()));
  } else {
    obs::count(obs::Counter::PacketsDropped);
    BRAIDIO_TRACE_EVENT(obs::EventType::PacketDrop, hal::to_string(mode),
                        obs::no_sim_time(),
                        static_cast<double>(bytes.size()));
  }
  return parsed;
}

}  // namespace braidio::mac
