#include "mac/crc.hpp"

#include <array>

namespace braidio::mac {

namespace {

constexpr std::array<std::uint16_t, 256> make_crc16_table() {
  std::array<std::uint16_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint16_t c = static_cast<std::uint16_t>(n << 8);
    for (int k = 0; k < 8; ++k) {
      c = (c & 0x8000) ? static_cast<std::uint16_t>((c << 1) ^ 0x1021)
                       : static_cast<std::uint16_t>(c << 1);
    }
    table[n] = c;
  }
  return table;
}

constexpr auto kCrc16Table = make_crc16_table();

}  // namespace

std::uint16_t crc16_update(std::uint16_t state,
                           std::span<const std::uint8_t> data) {
  for (std::uint8_t byte : data) {
    state = static_cast<std::uint16_t>(
        (state << 8) ^ kCrc16Table[((state >> 8) ^ byte) & 0xFF]);
  }
  return state;
}

std::uint16_t crc16(std::span<const std::uint8_t> data) {
  return crc16_update(0xFFFF, data);
}

}  // namespace braidio::mac
