// Pass-through decorators over the HAL's virtual interfaces.
//
// The network simulator reaches its radios and its channel physics only
// through hal::RadioBackend, so the traced run hands it a TracedBackend
// that wraps the real one: create_radio() calls are counted and timed
// (summed, not one span each: a 10k-node replica makes 10k of them), and
// the BER evaluations and (under a carrier-sensing MAC) the CCA windows
// the run makes are counted.
// Every call forwards unchanged to the wrapped object, so a traced
// replica's simulated results are identical to an untraced one (the
// benchmark checks this).
//
// Single-threaded: the counters are plain integers, which is safe because
// the net workloads run each replica on one thread.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "hal/backend.hpp"
#include "trace.hpp"

namespace perfbench {

namespace hal = braidio::hal;

struct HalCounts {
  double radio_s = 0.0;         // time inside RadioBackend::create_radio
  std::uint64_t ber_calls = 0;  // ChannelModel::ber_from_snr_db
  std::uint64_t senses = 0;     // IRadio::sense (one per CCA window)
};

class CountingChannel final : public hal::ChannelModel {
 public:
  CountingChannel(const hal::ChannelModel& inner, HalCounts& counts)
      : inner_(inner), counts_(counts) {}

  double snr_db(hal::LinkMode mode, hal::Bitrate rate,
                double distance_m) const override {
    return inner_.snr_db(mode, rate, distance_m);
  }
  double ber_from_snr_db(hal::LinkMode mode,
                         double snr_db) const override {
    ++counts_.ber_calls;
    return inner_.ber_from_snr_db(mode, snr_db);
  }
  bool available(hal::LinkMode mode, hal::Bitrate rate,
                 double distance_m) const override {
    return inner_.available(mode, rate, distance_m);
  }
  std::optional<hal::Bitrate> best_bitrate(
      hal::LinkMode mode, double distance_m) const override {
    return inner_.best_bitrate(mode, distance_m);
  }
  double range_m(hal::LinkMode mode,
                 hal::Bitrate rate) const override {
    return inner_.range_m(mode, rate);
  }

 private:
  const hal::ChannelModel& inner_;
  HalCounts& counts_;
};

class CountingRadio final : public hal::IRadio {
 public:
  CountingRadio(std::unique_ptr<hal::IRadio> inner, HalCounts& counts)
      : inner_(std::move(inner)), counts_(counts) {}

  const hal::Capabilities& caps() const override {
    return inner_->caps();
  }
  const std::string& name() const override { return inner_->name(); }
  std::uint8_t address() const override { return inner_->address(); }
  braidio::energy::Battery& battery() override { return inner_->battery(); }
  const braidio::energy::Battery& battery() const override {
    return inner_->battery();
  }
  const braidio::energy::EnergyLedger& ledger() const override {
    return inner_->ledger();
  }
  std::optional<hal::OperatingPoint> operating_point()
      const override {
    return inner_->operating_point();
  }
  std::optional<hal::Role> role() const override {
    return inner_->role();
  }
  braidio::util::Watts power_draw() const override {
    return inner_->power_draw();
  }
  bool switch_to(const hal::OperatingPoint& point,
                 hal::Role role) override {
    return inner_->switch_to(point, role);
  }
  void go_idle() override { inner_->go_idle(); }
  bool advance(braidio::util::Seconds elapsed) override {
    return inner_->advance(elapsed);
  }
  double clock_s() const override { return inner_->clock_s(); }
  std::uint64_t mode_switches() const override {
    return inner_->mode_switches();
  }
  bool sense(braidio::util::Seconds window) override {
    ++counts_.senses;
    return inner_->sense(window);
  }

 private:
  std::unique_ptr<hal::IRadio> inner_;
  HalCounts& counts_;
};

class TracedBackend final : public hal::RadioBackend {
 public:
  explicit TracedBackend(const hal::RadioBackend& inner)
      : inner_(inner), channel_(inner.channel(), counts_) {}

  const std::string& name() const override { return inner_.name(); }
  const std::string& description() const override {
    return inner_.description();
  }
  const hal::Capabilities& caps() const override {
    return inner_.caps();
  }
  const hal::ChannelModel& channel() const override {
    return channel_;
  }
  std::unique_ptr<hal::IRadio> create_radio(
      std::string name, std::uint8_t address,
      braidio::util::WattHours battery_capacity) const override {
    const auto start = Clock::now();
    auto radio =
        inner_.create_radio(std::move(name), address, battery_capacity);
    counts_.radio_s += seconds_since(start);
    if (!count_senses_) return radio;
    return std::make_unique<CountingRadio>(std::move(radio), counts_);
  }

  /// Wrap radios to count CCA windows. Only a carrier-sensing MAC needs
  /// it, and the extra indirection on every radio call costs ~15% of a
  /// TDMA run, so radios are left unwrapped otherwise.
  void set_count_senses(bool on) { count_senses_ = on; }
  const HalCounts& counts() const { return counts_; }
  void reset_counts() { counts_ = HalCounts{}; }

 private:
  const hal::RadioBackend& inner_;
  mutable HalCounts counts_;
  CountingChannel channel_;
  bool count_senses_ = true;
};

}  // namespace perfbench
