#include "hal/conformance.hpp"

#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace braidio::hal {

namespace {

/// Big enough that no conformance op sequence can empty it.
constexpr double kTestBatteryWh = 1e-3;

void check_capabilities(const RadioBackend& backend,
                        std::vector<std::string>& out) {
  const Capabilities& caps = backend.caps();
  if (backend.name().empty()) out.push_back("backend name is empty");
  if (backend.description().empty()) {
    out.push_back("backend description is empty");
  }
  if (caps.lattice.empty()) {
    out.push_back("capability lattice is empty: radio can do nothing");
    return;
  }
  if (!(caps.sleep_power.value() > 0.0) ||
      !std::isfinite(caps.sleep_power.value())) {
    out.push_back("sleep_power must be finite and > 0");
  }
  std::set<std::pair<int, int>> seen;
  for (const OperatingPoint& p : caps.lattice) {
    const std::string tag = std::string("lattice point ") + p.label();
    switch (p.mode) {
      case LinkMode::Active:
        if (!caps.can_active) {
          out.push_back(tag + " declared without can_active");
        }
        break;
      case LinkMode::PassiveRx:
        // The data transmitter holds the carrier in passive-RX mode.
        if (!caps.can_source_carrier) {
          out.push_back(tag + " declared without can_source_carrier");
        }
        break;
      case LinkMode::Backscatter:
        if (!caps.can_backscatter) {
          out.push_back(tag + " declared without can_backscatter");
        }
        // The data receiver holds the carrier the tag reflects.
        if (!caps.can_source_carrier) {
          out.push_back(tag + " declared without can_source_carrier");
        }
        break;
    }
    if (!(p.tx_power_w > 0.0) || !std::isfinite(p.tx_power_w) ||
        !(p.rx_power_w > 0.0) || !std::isfinite(p.rx_power_w)) {
      out.push_back(tag + " has non-finite or non-positive power");
    }
    if (!seen.insert({static_cast<int>(p.mode), static_cast<int>(p.rate)})
             .second) {
      out.push_back(tag + " duplicated in lattice");
    }
    const SwitchOverhead& oh = caps.switch_overhead[static_cast<int>(p.mode)];
    if (oh.tx_joules < 0.0 || oh.rx_joules < 0.0 ||
        !std::isfinite(oh.tx_joules) || !std::isfinite(oh.rx_joules)) {
      out.push_back(std::string("switch overhead for ") + to_string(p.mode) +
                    " is negative or non-finite");
    }
  }
}

void check_channel(const RadioBackend& backend,
                   std::vector<std::string>& out) {
  const ChannelModel& channel = backend.channel();
  for (const OperatingPoint& p : backend.caps().lattice) {
    const std::string tag = std::string("channel at ") + p.label();
    const double range = channel.range_m(p.mode, p.rate);
    if (!(range > 0.0) || !std::isfinite(range)) {
      out.push_back(tag + ": range_m is non-finite or non-positive");
      continue;
    }
    if (!channel.available(p.mode, p.rate, 0.5 * range)) {
      out.push_back(tag + ": unavailable at half its own declared range");
    }
    if (channel.available(p.mode, p.rate, 4.0 * range)) {
      out.push_back(tag + ": still available at 4x its declared range");
    }
    const double ber_near = channel.ber(p.mode, p.rate, 0.5 * range);
    const double ber_far = channel.ber(p.mode, p.rate, 2.0 * range);
    if (!(ber_near >= 0.0) || !(ber_near <= 1.0) || !(ber_far >= 0.0) ||
        !(ber_far <= 1.0)) {
      out.push_back(tag + ": BER outside [0, 1]");
    }
    if (ber_near > ber_far) {
      out.push_back(tag + ": BER improves with distance");
    }
    if (channel.snr_db(p.mode, p.rate, 0.5 * range) <
        channel.snr_db(p.mode, p.rate, 2.0 * range)) {
      out.push_back(tag + ": SNR improves with distance");
    }
  }
}

void check_state_machine(const RadioBackend& backend,
                         std::vector<std::string>& out) {
  if (backend.caps().lattice.empty()) return;
  const OperatingPoint point = backend.caps().lattice.front();
  auto radio = backend.create_radio("conformance", 1,
                                    util::WattHours(kTestBatteryWh));
  if (!radio) {
    out.push_back("create_radio returned null");
    return;
  }
  if (radio->state() != RadioState::Sleep) {
    out.push_back("fresh radio does not confirm Sleep");
  }
  // Contract macros abort the process, so op legality must be a documented
  // recoverable error: the HAL promises std::logic_error here.
  try {
    radio->transmit(util::Seconds(1e-3));
    out.push_back("transmit accepted while Sleep (must refuse)");
  } catch (const std::logic_error&) {
  }
  if (!radio->switch_to(point, Role::DataTransmitter)) {
    out.push_back("switch_to failed on a full battery");
  }
  if (radio->state() != RadioState::TransmitReady) {
    out.push_back("radio does not confirm TransmitReady after request");
  }
  try {
    radio->listen(util::Seconds(1e-3));
    out.push_back("listen accepted while TransmitReady (must refuse)");
  } catch (const std::logic_error&) {
  }
  if (!radio->transmit(util::Seconds(1e-3))) {
    out.push_back("transmit drained a full battery in 1 ms");
  }
  radio->go_idle();
  if (radio->state() != RadioState::Sleep) {
    out.push_back("radio does not confirm Sleep after go_idle");
  }
  if (radio->caps().can_cca) {
    // Carrier sense must key off the declared threshold.
    const double thr = radio->caps().cca_threshold_dbm;
    if (!radio->cca_clear(util::Dbm(thr - 20.0)) ||
        radio->cca_clear(util::Dbm(thr + 20.0))) {
      out.push_back("cca_clear ignores the declared threshold");
    }
    // The sense window itself must cost energy: a listen is never free.
    const double before = radio->battery().remaining_joules();
    if (!radio->sense(util::Seconds(1e-3))) {
      out.push_back("sense drained a full battery in 1 ms");
    }
    if (!(radio->battery().remaining_joules() < before)) {
      out.push_back("sense charged nothing for a carrier-sense window");
    }
  } else {
    try {
      radio->cca_clear(util::Dbm(-90.0));
      out.push_back("cca_clear accepted despite can_cca=false");
    } catch (const std::logic_error&) {
    }
    try {
      radio->sense(util::Seconds(1e-3));
      out.push_back("sense accepted despite can_cca=false");
    } catch (const std::logic_error&) {
    }
  }
}

/// Drive one radio through every lattice point in both roles; returns
/// (joules drained from battery, joules posted to the ledger).
std::pair<double, double> run_op_sequence(const RadioBackend& backend,
                                          IRadio& radio,
                                          std::vector<std::string>* out) {
  const double initial = radio.battery().remaining_joules();
  for (const OperatingPoint& p : backend.caps().lattice) {
    radio.switch_to(p, Role::DataTransmitter);
    radio.transmit(util::Seconds(2e-3));
    radio.switch_to(p, Role::DataReceiver);
    radio.listen(util::Seconds(3e-3));
  }
  radio.go_idle();
  radio.advance(util::Seconds(1.0));
  const double drained = initial - radio.battery().remaining_joules();
  const double posted = radio.ledger().total_joules();
  if (out && radio.mode_switches() == 0) {
    out->push_back("mode_switches stayed 0 across an op sequence");
  }
  if (out && radio.clock_s() <= 0.0) {
    out->push_back("clock_s did not advance across an op sequence");
  }
  return {drained, posted};
}

void check_energy_conservation(const RadioBackend& backend,
                               std::vector<std::string>& out) {
  if (backend.caps().lattice.empty()) return;
  auto radio = backend.create_radio("conservation", 2,
                                    util::WattHours(kTestBatteryWh));
  if (!radio) return;  // already reported by the state-machine check
  const auto [drained, posted] = run_op_sequence(backend, *radio, &out);
  const double scale = std::max(1.0, std::abs(drained));
  if (std::abs(drained - posted) > 1e-9 * scale) {
    std::ostringstream msg;
    msg << "energy not conserved: battery drained " << drained
        << " J but ledger posted " << posted << " J";
    out.push_back(msg.str());
  }
}

void check_determinism(const RadioBackend& backend,
                       std::vector<std::string>& out) {
  if (backend.caps().lattice.empty()) return;
  auto a = backend.create_radio("det", 3, util::WattHours(kTestBatteryWh));
  auto b = backend.create_radio("det", 3, util::WattHours(kTestBatteryWh));
  if (!a || !b) return;
  run_op_sequence(backend, *a, nullptr);
  run_op_sequence(backend, *b, nullptr);
  // Bit-equality, not tolerance: identical op sequences must replay
  // identically or faulted-sweep reproduction is impossible.
  if (a->battery().remaining_joules() != b->battery().remaining_joules() ||
      a->ledger().total_joules() != b->ledger().total_joules()) {
    out.push_back("identical op sequences diverged (non-deterministic)");
  }
}

}  // namespace

std::vector<std::string> conformance_violations(const RadioBackend& backend) {
  std::vector<std::string> out;
  check_capabilities(backend, out);
  check_channel(backend, out);
  check_state_machine(backend, out);
  check_energy_conservation(backend, out);
  check_determinism(backend, out);
  return out;
}

}  // namespace braidio::hal
