// Link-layer vocabulary shared by the radio HAL and every driver.
//
// The three Braidio link modes (named, as in the paper, by who holds the
// carrier / what the receiver does) and the supported bitrates. These used
// to live in phy/; they moved below the HAL boundary so that MAC code can
// name a mode without including any driver (phy/core) header —
// `phy/link_mode.hpp` re-exports them for existing driver-side code.
#pragma once

#include <array>

namespace braidio::hal {

enum class LinkMode {
  Active,       // both ends run full transceivers
  PassiveRx,    // data TX holds the carrier; data RX is an envelope detector
  Backscatter,  // data RX holds the carrier; data TX is a reflecting tag
};

inline constexpr std::array<LinkMode, 3> kAllLinkModes = {
    LinkMode::Active, LinkMode::PassiveRx, LinkMode::Backscatter};

enum class Bitrate { k10, k100, M1 };

inline constexpr std::array<Bitrate, 3> kAllBitrates = {
    Bitrate::k10, Bitrate::k100, Bitrate::M1};

/// Bits per second for a Bitrate.
double bitrate_bps(Bitrate rate);

const char* to_string(LinkMode mode);
const char* to_string(Bitrate rate);

}  // namespace braidio::hal
