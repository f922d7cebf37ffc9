// HAL conformance harness: one registered backend per ctest entry
// (`hal.conformance.<backend>`), driven by --backend=NAME, plus a
// deliberately dishonest fixture driver (--broken-fixture) the suite must
// reject — proving the checks have teeth, not just that good drivers pass.
//
// Plain main (not gtest): conformance is a function returning a violation
// list (tests/support/conformance.hpp), and ctest names with '-' in them
// don't fit gtest's parameterized-name rules.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "backends/backends.hpp"
#include "hal/backend.hpp"
#include "hal/radio.hpp"
#include "support/conformance.hpp"

namespace {

using namespace braidio;

/// A driver that lies: its lattice declares a passive-RX point without
/// can_source_carrier, its sleep draw is zero, and its radios post only
/// half of every drain to the ledger (energy leak). The conformance suite
/// must flag all of it.
class BrokenFixtureRadio final : public hal::StandardRadio {
 public:
  using StandardRadio::StandardRadio;

  bool advance(util::Seconds elapsed) override {
    // Drain the battery directly behind the ledger's back.
    battery().drain(util::Joules(0.5 * power_draw().value() * elapsed.value()));
    return StandardRadio::advance(elapsed);
  }
};

class BrokenFixtureBackend final : public hal::RadioBackend {
 public:
  const std::string& name() const override { return name_; }
  const std::string& description() const override { return description_; }

  const hal::Capabilities& caps() const override {
    static const hal::Capabilities caps = [] {
      hal::Capabilities c;
      c.can_active = true;
      c.can_cca = false;
      c.sleep_power = util::Watts{0.0};  // violation: no finite sleep floor
      c.lattice = {
          {hal::LinkMode::Active, hal::Bitrate::M1, 0.1, 0.1},
          // Violation: passive-RX declared without can_source_carrier.
          {hal::LinkMode::PassiveRx, hal::Bitrate::k10, 0.129, 0.0},
      };
      return c;
    }();
    return caps;
  }

  const hal::ChannelModel& channel() const override {
    return braidio::backends::braidio_backend().channel();
  }

  std::unique_ptr<hal::IRadio> create_radio(
      std::string name, std::uint8_t address,
      util::WattHours battery_capacity) const override {
    return std::make_unique<BrokenFixtureRadio>(std::move(name), address,
                                                battery_capacity, caps());
  }

 private:
  std::string name_ = "broken-fixture";
  std::string description_ = "deliberately dishonest driver";
};

int run(const hal::RadioBackend& backend, bool expect_violations) {
  const auto violations = hal::conformance_violations(backend);
  for (const auto& v : violations) {
    std::cout << "[" << backend.name() << "] " << v << "\n";
  }
  if (expect_violations) {
    if (violations.empty()) {
      std::cerr << "FAIL: the broken fixture passed conformance — the "
                   "suite has no teeth\n";
      return 1;
    }
    std::cout << "OK: broken fixture rejected with " << violations.size()
              << " violation(s)\n";
    return 0;
  }
  if (!violations.empty()) {
    std::cerr << "FAIL: " << violations.size() << " conformance violation(s) "
              << "for backend '" << backend.name() << "'\n";
    return 1;
  }
  std::cout << "OK: backend '" << backend.name() << "' conforms\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string backend_name;
  bool broken = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--backend=", 0) == 0) {
      backend_name = arg.substr(10);
    } else if (arg == "--broken-fixture") {
      broken = true;
    } else {
      std::cerr << "usage: hal_conformance_test --backend=NAME | "
                   "--broken-fixture\n";
      return 2;
    }
  }
  try {
    if (broken) {
      return run(BrokenFixtureBackend{}, /*expect_violations=*/true);
    }
    if (backend_name.empty()) {
      std::cerr << "usage: hal_conformance_test --backend=NAME | "
                   "--broken-fixture\n";
      return 2;
    }
    braidio::backends::register_all();
    const auto& backend =
        braidio::hal::BackendRegistry::instance().get(backend_name);
    return run(backend, /*expect_violations=*/false);
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
}
