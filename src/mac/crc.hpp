// CRC-16/CCITT-FALSE, table-driven: the frame check sequence every
// Braidio frame carries (short links, low overhead).
#pragma once

#include <cstdint>
#include <span>

namespace braidio::mac {

/// CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection, no xorout.
std::uint16_t crc16(std::span<const std::uint8_t> data);

/// Incremental form: continue from a previous CRC state.
std::uint16_t crc16_update(std::uint16_t state,
                           std::span<const std::uint8_t> data);

}  // namespace braidio::mac
