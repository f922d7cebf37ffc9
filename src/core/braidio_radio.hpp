// The Braidio prototype behind the HAL: its declared capability set.
//
// The braidio backend (backends/backends.hpp) binds this set to the
// calibrated link budget; its radios are plain hal::StandardRadio
// endpoints, so a Braidio radio behaves like the generic driver by
// construction.
#pragma once

#include "core/power_table.hpp"
#include "hal/radio.hpp"

namespace braidio::core {

using Role = hal::Role;
using hal::category_for;
using hal::to_string;

/// Declared capabilities of the Braidio prototype: all three modes at all
/// three bitrates, carrier sourcing, tag reflection, and envelope-detector
/// carrier sense, with Table 5 switch-in costs and a 2 uW sleep floor
/// (MCU retention + RTC).
hal::Capabilities braidio_capabilities(const PowerTable& table);

}  // namespace braidio::core
