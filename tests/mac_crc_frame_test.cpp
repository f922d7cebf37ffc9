#include <gtest/gtest.h>

#include "mac/crc.hpp"
#include "mac/frame.hpp"
#include "mac/probe.hpp"
#include "phy/link_mode.hpp"
#include "util/rng.hpp"

namespace braidio::mac {
namespace {

// ---------- CRC ----------

TEST(Crc16, StandardCheckValue) {
  // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
  const std::vector<std::uint8_t> data{'1', '2', '3', '4', '5',
                                       '6', '7', '8', '9'};
  EXPECT_EQ(crc16(data), 0x29B1);
}

TEST(Crc, EmptyInputs) {
  EXPECT_EQ(crc16(std::span<const std::uint8_t>{}), 0xFFFF);
}

TEST(Crc, IncrementalMatchesOneShot) {
  util::Rng rng(3);
  std::vector<std::uint8_t> data(257);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const auto head = std::span(data).first(100);
  const auto tail = std::span(data).subspan(100);
  EXPECT_EQ(crc16_update(crc16_update(0xFFFF, head), tail), crc16(data));
}

TEST(Crc, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> data{0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  const auto clean16 = crc16(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc16(data), clean16);
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

// ---------- Frame ----------

Frame sample_frame() {
  Frame f;
  f.type = FrameType::Data;
  f.source = 7;
  f.destination = 9;
  f.sequence = 0xBEEF;
  f.payload = {1, 2, 3, 4, 5};
  return f;
}

TEST(Frame, SerializeDeserializeRoundTrip) {
  const Frame f = sample_frame();
  const auto bytes = serialize(f);
  EXPECT_EQ(bytes.size(), f.wire_size());
  const auto parsed = deserialize(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f);
}

TEST(Frame, AllTypesRoundTrip) {
  for (auto type : {FrameType::Data, FrameType::Ack, FrameType::Probe,
                    FrameType::ProbeReport, FrameType::BatteryStatus,
                    FrameType::ModeSwitch}) {
    Frame f = sample_frame();
    f.type = type;
    const auto parsed = deserialize(serialize(f));
    ASSERT_TRUE(parsed.has_value()) << to_string(type);
    EXPECT_EQ(parsed->type, type);
  }
}

TEST(Frame, EmptyPayloadAndMaxPayload) {
  Frame f = sample_frame();
  f.payload.clear();
  EXPECT_TRUE(deserialize(serialize(f)).has_value());
  f.payload.assign(kMaxPayloadBytes, 0xFF);
  EXPECT_TRUE(deserialize(serialize(f)).has_value());
  f.payload.assign(kMaxPayloadBytes + 1, 0xFF);
  EXPECT_THROW(serialize(f), std::invalid_argument);
}

TEST(Frame, RejectsCorruptionAnywhere) {
  const auto bytes = serialize(sample_frame());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto corrupted = bytes;
    corrupted[i] ^= 0x10;
    // Either rejected outright, or (length-field corruption) size check
    // fails; no corrupted frame may parse equal to the original.
    const auto parsed = deserialize(corrupted);
    if (parsed) {
      EXPECT_NE(*parsed, sample_frame()) << "byte " << i;
    }
  }
}

TEST(Frame, RejectsTruncationAndBadMagic) {
  auto bytes = serialize(sample_frame());
  EXPECT_FALSE(deserialize(std::span(bytes).first(bytes.size() - 1))
                   .has_value());
  EXPECT_FALSE(deserialize(std::span(bytes).first(4)).has_value());
  bytes[0] = 0x0F;  // wrong magic nibble
  EXPECT_FALSE(deserialize(bytes).has_value());
}

TEST(Frame, RejectsUnknownType) {
  auto bytes = serialize(sample_frame());
  bytes[0] = (kFrameMagic << 4) | 0x0E;  // type nibble out of range
  EXPECT_FALSE(deserialize(bytes).has_value());
}

TEST(Frame, WireBitsAccounting) {
  Frame f = sample_frame();
  EXPECT_EQ(f.wire_bits(), (kHeaderBytes + 5 + kCrcBytes) * 8);
}

// ---------- Control payloads ----------

TEST(Probe, RoundTrip) {
  const ProbePayload p{phy::LinkMode::Backscatter, phy::Bitrate::k100, 512};
  const auto parsed = parse_probe(serialize(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->mode, p.mode);
  EXPECT_EQ(parsed->rate, p.rate);
  EXPECT_EQ(parsed->token, p.token);
  EXPECT_FALSE(parse_probe(std::vector<std::uint8_t>{1, 2}).has_value());
}

TEST(ProbeReport, RoundTripWithFloats) {
  ProbeReportPayload p;
  p.mode = phy::LinkMode::PassiveRx;
  p.rate = phy::Bitrate::M1;
  p.token = 99;
  p.snr_db = 23.75f;
  p.ber_estimate = 1.5e-3f;
  const auto parsed = parse_probe_report(serialize(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FLOAT_EQ(parsed->snr_db, 23.75f);
  EXPECT_FLOAT_EQ(parsed->ber_estimate, 1.5e-3f);
  EXPECT_FALSE(parse_probe_report(std::vector<std::uint8_t>(10)).has_value());
}

TEST(BatteryStatus, RoundTrip) {
  const BatteryStatusPayload p{123456.0f, 42};
  const auto parsed = parse_battery_status(serialize(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FLOAT_EQ(parsed->remaining_joules, 123456.0f);
  EXPECT_EQ(parsed->epoch, 42u);
}

TEST(ModeSwitch, RoundTripAndInvalidModeRejected) {
  const ModeSwitchPayload p{phy::LinkMode::Backscatter, phy::Bitrate::k10, 8};
  const auto parsed = parse_mode_switch(serialize(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->packets_in_mode, 8u);
  // Invalid packed mode/rate nibbles must be rejected.
  std::vector<std::uint8_t> bad{0xFF, 0, 0};
  EXPECT_FALSE(parse_mode_switch(bad).has_value());
  EXPECT_FALSE(parse_probe(bad).has_value());
}

TEST(ControlPayloads, CarryInsideFrames) {
  Frame f;
  f.type = FrameType::Probe;
  f.payload = serialize(ProbePayload{phy::LinkMode::Active,
                                     phy::Bitrate::k10, 7});
  const auto parsed = deserialize(serialize(f));
  ASSERT_TRUE(parsed.has_value());
  const auto probe = parse_probe(parsed->payload);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->token, 7u);
}

}  // namespace
}  // namespace braidio::mac
