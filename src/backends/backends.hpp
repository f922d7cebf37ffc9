// Built-in radio backends behind the HAL (DESIGN.md §14).
//
// Each backend bundles one hardware family's declared Capabilities, its
// ChannelModel physics, and an IRadio factory:
//
//  * braidio        — the calibrated prototype (PowerTable + Fig. 13 link
//                     budget), and the only way to build the Braidio model.
//  * ble-active     — an SPBT/CC26xx-class BLE module: active-only, 1 Mbps.
//  * reader-passive — an AS3993-class commercial reader driving passive
//                     tags: backscatter-only, reader-grade carrier.
//  * blisp-hybrid   — a BLISP-style sketch: BLE-class active radio grafted
//                     onto a backscatter front end.
//
// Registration is explicit (register_all) rather than via static
// initializers, which the linker may dead-strip out of static libraries.
#pragma once

#include "hal/backend.hpp"

namespace braidio::backends {

inline constexpr const char* kBraidio = "braidio";
inline constexpr const char* kBleActive = "ble-active";
inline constexpr const char* kReaderPassive = "reader-passive";
inline constexpr const char* kBlispHybrid = "blisp-hybrid";

/// Register every built-in backend with hal::BackendRegistry. Idempotent;
/// call before any registry lookup.
void register_all();

/// Convenience accessors (each implies register_all()).
const hal::RadioBackend& braidio_backend();
const hal::RadioBackend& ble_active_backend();
const hal::RadioBackend& reader_passive_backend();
const hal::RadioBackend& blisp_hybrid_backend();

}  // namespace braidio::backends
