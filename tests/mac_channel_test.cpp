#include "mac/packet_channel.hpp"

#include <gtest/gtest.h>

#include "mac/arq.hpp"
#include "phy/ber.hpp"
#include "phy/link_budget.hpp"
#include "sim/faults/fault_timeline.hpp"
#include "sim/faults/impairment.hpp"

namespace braidio::mac {
namespace {

Frame sample_frame(std::size_t payload = 32) {
  Frame f;
  f.type = FrameType::Data;
  f.source = 1;
  f.destination = 2;
  f.sequence = 5;
  f.payload.assign(payload, 0x5A);
  return f;
}

class ChannelTest : public ::testing::Test {
 protected:
  phy::LinkBudget budget_;
};

TEST_F(ChannelTest, CleanLinkDeliversEverything) {
  PacketChannel channel(budget_, {.distance_m = 0.2}, util::Rng(1));
  const Frame f = sample_frame();
  for (int i = 0; i < 200; ++i) {
    const auto got =
        channel.transmit(f, phy::LinkMode::Backscatter, phy::Bitrate::M1);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, f);
  }
}

TEST_F(ChannelTest, OutOfRangeLinkLosesEverything) {
  PacketChannel channel(budget_, {.distance_m = 3.5}, util::Rng(2));
  const Frame f = sample_frame();
  int delivered = 0;
  for (int i = 0; i < 100; ++i) {
    if (channel.transmit(f, phy::LinkMode::Backscatter, phy::Bitrate::M1)) {
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 0);
}

TEST_F(ChannelTest, LossRateMatchesPacketErrorModel) {
  PacketChannelConfig cfg;
  cfg.distance_m = 0.88;  // near the backscatter@1M edge: measurable BER
  PacketChannel channel(budget_, cfg, util::Rng(3));
  const Frame f = sample_frame();
  const double ber =
      channel.current_ber(phy::LinkMode::Backscatter, phy::Bitrate::M1);
  ASSERT_GT(ber, 1e-4);
  const double expected_loss =
      phy::packet_error_rate(ber, static_cast<unsigned>(f.wire_bits()));
  const int n = 4000;
  int lost = 0;
  for (int i = 0; i < n; ++i) {
    if (!channel.transmit(f, phy::LinkMode::Backscatter, phy::Bitrate::M1)) {
      ++lost;
    }
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, expected_loss,
              0.05 + 0.2 * expected_loss);
}

TEST_F(ChannelTest, ExtraLossShiftsBer) {
  PacketChannelConfig clean{.distance_m = 0.7};
  PacketChannelConfig shadowed{.distance_m = 0.7};
  shadowed.extra_loss_db = 6.0;
  PacketChannel a(budget_, clean, util::Rng(4));
  PacketChannel b(budget_, shadowed, util::Rng(4));
  EXPECT_LT(a.current_ber(phy::LinkMode::Backscatter, phy::Bitrate::M1),
            b.current_ber(phy::LinkMode::Backscatter, phy::Bitrate::M1));
}

TEST_F(ChannelTest, BlockFadingAddsVariability) {
  // With fading, even a healthy link occasionally faults — and a marginal
  // one occasionally shines. Just verify losses appear at a distance where
  // the static channel is clean. Frames 50 ms apart (10 coherence times)
  // see nearly independent fades.
  PacketChannelConfig cfg{.distance_m = 0.7};
  cfg.block_fading = true;
  PacketChannel channel(budget_, cfg, util::Rng(5));
  const Frame f = sample_frame();
  int lost = 0;
  for (int i = 0; i < 2000; ++i) {
    channel.set_clock(util::Seconds(50e-3 * i));
    if (!channel.transmit(f, phy::LinkMode::Backscatter, phy::Bitrate::M1)) {
      ++lost;
    }
  }
  EXPECT_GT(lost, 0);
  EXPECT_LT(lost, 2000);
}

TEST_F(ChannelTest, AirtimeAccounting) {
  const Frame f = sample_frame(32);  // 32 + 7 + 2 bytes = 328 bits
  EXPECT_DOUBLE_EQ(PacketChannel::airtime_s(f, phy::Bitrate::M1), 328e-6);
  EXPECT_DOUBLE_EQ(PacketChannel::airtime_s(f, phy::Bitrate::k10), 32.8e-3);
}

TEST_F(ChannelTest, DistanceCanChangeMidRun) {
  PacketChannel channel(budget_, {.distance_m = 0.3}, util::Rng(6));
  const Frame f = sample_frame();
  EXPECT_TRUE(
      channel.transmit(f, phy::LinkMode::Backscatter, phy::Bitrate::M1)
          .has_value());
  channel.set_distance(5.0);
  EXPECT_DOUBLE_EQ(channel.distance(), 5.0);
  EXPECT_FALSE(
      channel.transmit(f, phy::LinkMode::Backscatter, phy::Bitrate::M1)
          .has_value());
  EXPECT_THROW(channel.set_distance(-1.0), std::invalid_argument);
}

TEST_F(ChannelTest, CoherentFadingHoldsAcrossDataAckExchange) {
  // THE bug this pin forecloses: the seed redrew an independent Rayleigh
  // fade for every transmission, so a data frame and the ACK 150 us behind
  // it saw unrelated channels — ACK loss was wildly over-counted in deep
  // fades. With a coherence time >> the turnaround, the ACK must ride the
  // same fade block as its data frame; pairs separated by much more than
  // the coherence time stay independent.
  constexpr double kPairSpacingS = 50e-3;  // >> tau: pairs decorrelate
  const Frame data = sample_frame();
  Frame ack;
  ack.type = FrameType::Ack;
  ack.source = 2;
  ack.destination = 1;
  PacketChannelConfig cfg{.distance_m = 0.8};
  cfg.block_fading = true;
  PacketChannel channel(budget_, cfg, util::Rng(11));
  int data_ok = 0;
  int both_ok = 0;
  double clock = 0.0;
  const int pairs = 3000;
  for (int i = 0; i < pairs; ++i) {
    channel.set_clock(util::Seconds(clock));
    const bool d =
        channel.transmit(data, phy::LinkMode::Backscatter, phy::Bitrate::M1)
            .has_value();
    channel.set_clock(util::Seconds(clock + kTurnaroundS));
    const bool k =
        channel.transmit(ack, phy::LinkMode::Backscatter, phy::Bitrate::M1)
            .has_value();
    data_ok += d ? 1 : 0;
    both_ok += (d && k) ? 1 : 0;
    clock += kPairSpacingS;
  }
  const double p_data = static_cast<double>(data_ok) / pairs;
  ASSERT_GT(data_ok, 0);
  const double p_ack_given_data = static_cast<double>(both_ok) / data_ok;
  // Conditioned on the data frame surviving, the coherent channel almost
  // always delivers the ACK too, well above the data frame's own odds; an
  // independent redraw re-rolls the fade (measured at the seed: ~0.92
  // coherent vs ~0.49 independent at 0.8 m).
  EXPECT_GT(p_ack_given_data, 0.85);
  EXPECT_GT(p_ack_given_data, p_data + 0.30);
}

TEST_F(ChannelTest, CarrierDropoutFaultBlocksEverything) {
  const sim::faults::ImpairmentSchedule schedule{sim::faults::FaultTimeline{
      {{sim::faults::FaultKind::CarrierDropout, 1.0, 1.0, 0.0, 0.0,
        sim::faults::kTargetBoth}}}};
  PacketChannel channel(budget_, {.distance_m = 0.2}, util::Rng(12));
  channel.set_impairments(&schedule);
  const Frame f = sample_frame();
  channel.set_clock(util::Seconds(0.5));  // before the outage
  EXPECT_TRUE(
      channel.transmit(f, phy::LinkMode::Backscatter, phy::Bitrate::M1)
          .has_value());
  // inside the outage: deterministic loss
  channel.set_clock(util::Seconds(1.5));
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(
        channel.transmit(f, phy::LinkMode::Backscatter, phy::Bitrate::M1)
            .has_value());
  }
  channel.set_clock(util::Seconds(2.5));  // after the outage
  EXPECT_TRUE(
      channel.transmit(f, phy::LinkMode::Backscatter, phy::Bitrate::M1)
          .has_value());
}

TEST_F(ChannelTest, ShadowingFaultRaisesLossInsideItsWindow) {
  const sim::faults::ImpairmentSchedule schedule{sim::faults::FaultTimeline{
      {{sim::faults::FaultKind::Shadowing, 10.0, 10.0, 30.0, 0.0,
        sim::faults::kTargetBoth}}}};
  PacketChannel channel(budget_, {.distance_m = 0.7}, util::Rng(13));
  channel.set_impairments(&schedule);
  const Frame f = sample_frame();
  int clean = 0;
  int shadowed = 0;
  channel.set_clock(util::Seconds(1.0));
  for (int i = 0; i < 300; ++i) {
    clean += channel.transmit(f, phy::LinkMode::Backscatter,
                              phy::Bitrate::M1)
                 ? 1
                 : 0;
  }
  channel.set_clock(util::Seconds(15.0));
  for (int i = 0; i < 300; ++i) {
    shadowed += channel.transmit(f, phy::LinkMode::Backscatter,
                                 phy::Bitrate::M1)
                    ? 1
                    : 0;
  }
  // 0.7 m has a small static BER, so the clean window loses a frame or
  // two; the 30 dB shadowing window must be crippling by comparison.
  EXPECT_GT(clean, 280);
  EXPECT_LT(shadowed, 150);
}

TEST_F(ChannelTest, CorruptionNeverForgesContent) {
  // Whatever survives the channel and the CRC must be byte-identical to
  // what was sent (no silent corruption), modulo the 2^-16 CRC collision
  // risk which this seeded run must not hit.
  PacketChannel channel(budget_, {.distance_m = 0.895}, util::Rng(7));
  const Frame f = sample_frame();
  int corrupted = 0;
  for (int i = 0; i < 3000; ++i) {
    const auto got =
        channel.transmit(f, phy::LinkMode::Backscatter, phy::Bitrate::M1);
    if (got) {
      EXPECT_EQ(*got, f);
    } else {
      ++corrupted;
    }
  }
  EXPECT_GT(corrupted, 0);
}

}  // namespace
}  // namespace braidio::mac
