// Link-layer frame format.
//
// Wire layout (little-endian multi-byte fields):
//   [0]    version/magic nibble (0xB) | frame type nibble
//   [1]    source address
//   [2]    destination address
//   [3..4] sequence number
//   [5..6] payload length
//   [7..]  payload bytes
//   [n-2..n-1] CRC-16/CCITT over everything before it
//
// The frame set covers the carrier-offload control plane of Sec. 4.2:
// battery status exchange, probe packets, probe reports, and explicit mode
// switch commands — plus Data/Ack for the ARQ data plane.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace braidio::mac {

enum class FrameType : std::uint8_t {
  Data = 0x0,
  Ack = 0x1,
  Probe = 0x2,         // sounding packet for SNR estimation
  ProbeReport = 0x3,   // measured link quality back to the sender
  BatteryStatus = 0x4, // energy level advertisement
  ModeSwitch = 0x5,    // commanded (mode, bitrate) change
};

inline constexpr std::uint8_t kFrameMagic = 0xB;
inline constexpr std::size_t kHeaderBytes = 7;
inline constexpr std::size_t kCrcBytes = 2;
inline constexpr std::size_t kMaxPayloadBytes = 1024;

/// Serialized size in bits of a frame carrying `payload_bytes`.
constexpr std::size_t wire_bits_for(std::size_t payload_bytes) {
  return (kHeaderBytes + payload_bytes + kCrcBytes) * 8;
}

struct Frame {
  FrameType type = FrameType::Data;
  std::uint8_t source = 0;
  std::uint8_t destination = 0;
  std::uint16_t sequence = 0;
  std::vector<std::uint8_t> payload;

  /// Total serialized size in bytes.
  std::size_t wire_size() const {
    return kHeaderBytes + payload.size() + kCrcBytes;
  }
  std::size_t wire_bits() const { return wire_bits_for(payload.size()); }

  bool operator==(const Frame&) const = default;
};

/// Serialize to bytes (header + payload + CRC-16).
std::vector<std::uint8_t> serialize(const Frame& frame);

/// Parse and CRC-check; nullopt on truncation, bad magic, bad length, or
/// CRC mismatch (i.e. any corruption a receiver must reject).
std::optional<Frame> deserialize(std::span<const std::uint8_t> bytes);

const char* to_string(FrameType type);

}  // namespace braidio::mac
