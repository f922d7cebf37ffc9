#include "mac/arq.hpp"

#include <gtest/gtest.h>

namespace braidio::mac {
namespace {

Frame ack_for(const Frame& data) {
  Frame ack;
  ack.type = FrameType::Ack;
  ack.source = data.destination;
  ack.destination = data.source;
  ack.sequence = data.sequence;
  return ack;
}

TEST(ArqSender, HappyPathDeliversAndAdvancesSequence) {
  ArqSender sender(1, 2);
  EXPECT_TRUE(sender.idle());
  ASSERT_TRUE(sender.submit({0xAA}));
  EXPECT_FALSE(sender.idle());
  const auto frame = sender.frame_to_send();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->sequence, 0u);
  EXPECT_EQ(frame->source, 1);
  EXPECT_EQ(frame->destination, 2);
  EXPECT_TRUE(sender.on_ack(ack_for(*frame)));
  EXPECT_TRUE(sender.idle());
  EXPECT_EQ(sender.delivered(), 1u);
  EXPECT_EQ(sender.next_sequence(), 1u);
}

TEST(ArqSender, RejectsSubmitWhileInFlight) {
  ArqSender sender(1, 2);
  ASSERT_TRUE(sender.submit({1}));
  EXPECT_FALSE(sender.submit({2}));
}

TEST(ArqSender, RetransmitsUntilBudgetExhausted) {
  ArqSender sender(1, 2);
  ASSERT_TRUE(sender.submit({1}));
  for (unsigned i = 0; i < kMaxRetransmissions; ++i) {
    EXPECT_TRUE(sender.on_timeout()) << "retry " << i;
    EXPECT_TRUE(sender.frame_to_send().has_value());
  }
  EXPECT_FALSE(sender.on_timeout());  // budget gone, frame dropped
  EXPECT_TRUE(sender.idle());
  EXPECT_EQ(sender.dropped(), 1u);
  // Sequence advanced so the next frame is distinguishable.
  EXPECT_EQ(sender.next_sequence(), 1u);
}

TEST(ArqSender, IgnoresWrongAcks) {
  ArqSender sender(1, 2);
  ASSERT_TRUE(sender.submit({1}));
  const auto frame = sender.frame_to_send();
  ASSERT_TRUE(frame.has_value());
  Frame wrong_seq = ack_for(*frame);
  wrong_seq.sequence = 99;
  EXPECT_FALSE(sender.on_ack(wrong_seq));
  Frame wrong_peer = ack_for(*frame);
  wrong_peer.source = 42;
  EXPECT_FALSE(sender.on_ack(wrong_peer));
  Frame not_ack = *frame;  // a data frame is not an ack
  EXPECT_FALSE(sender.on_ack(not_ack));
  EXPECT_FALSE(sender.idle());
  // Ack with no transfer in flight is ignored too.
  EXPECT_TRUE(sender.on_ack(ack_for(*frame)));
  EXPECT_FALSE(sender.on_ack(ack_for(*frame)));
}

TEST(ArqSender, TimeoutWithoutTransferIsNoop) {
  ArqSender sender(1, 2);
  EXPECT_FALSE(sender.on_timeout());
}

TEST(ArqSender, CountsTransmissions) {
  ArqSender sender(1, 2);
  ASSERT_TRUE(sender.submit({1}));
  sender.note_transmission();
  sender.on_timeout();
  sender.note_transmission();
  EXPECT_EQ(sender.transmissions(), 2u);
  EXPECT_EQ(sender.attempts(), 1u);
}

TEST(ArqReceiver, AcksAndDetectsDuplicates) {
  ArqSender sender(1, 2);
  ArqReceiver receiver(2);
  ASSERT_TRUE(sender.submit({7, 7}));
  const auto frame = sender.frame_to_send();
  ASSERT_TRUE(frame.has_value());

  const auto first = receiver.on_data(*frame);
  ASSERT_TRUE(first.ack.has_value());
  EXPECT_TRUE(first.fresh);
  EXPECT_EQ(first.ack->type, FrameType::Ack);
  EXPECT_EQ(first.ack->sequence, frame->sequence);

  // Retransmission of the same sequence: ack again, but not fresh.
  const auto dup = receiver.on_data(*frame);
  ASSERT_TRUE(dup.ack.has_value());
  EXPECT_FALSE(dup.fresh);
  EXPECT_EQ(receiver.received_fresh(), 1u);
  EXPECT_EQ(receiver.duplicates(), 1u);
}

TEST(ArqReceiver, IgnoresFramesForOthers) {
  ArqReceiver receiver(5);
  Frame f;
  f.type = FrameType::Data;
  f.source = 1;
  f.destination = 9;  // not us
  const auto result = receiver.on_data(f);
  EXPECT_FALSE(result.ack.has_value());
  EXPECT_FALSE(result.fresh);
  Frame ack;
  ack.type = FrameType::Ack;
  ack.destination = 5;
  EXPECT_FALSE(receiver.on_data(ack).ack.has_value());
}

TEST(Arq, LossyRoundTripEventuallyDelivers) {
  // Deterministic loss pattern: every other data frame is lost; every
  // third ack is lost. Stop-and-wait must still deliver everything once.
  ArqSender sender(1, 2);
  ArqReceiver receiver(2);
  int data_counter = 0, ack_counter = 0;
  int fresh = 0;
  for (int msg = 0; msg < 50; ++msg) {
    ASSERT_TRUE(sender.submit({static_cast<std::uint8_t>(msg)}));
    while (true) {
      const auto frame = sender.frame_to_send();
      if (!frame) break;
      const bool data_lost = (++data_counter % 2) == 0;
      bool acked = false;
      if (!data_lost) {
        const auto result = receiver.on_data(*frame);
        if (result.fresh) ++fresh;
        const bool ack_lost = (++ack_counter % 3) == 0;
        if (result.ack && !ack_lost && sender.on_ack(*result.ack)) {
          acked = true;
        }
      }
      if (acked) break;
      if (!sender.on_timeout()) break;
    }
  }
  EXPECT_EQ(sender.delivered(), 50u);
  EXPECT_EQ(sender.dropped(), 0u);
  EXPECT_EQ(fresh, 50);
  EXPECT_GT(receiver.duplicates(), 0u);  // lost acks force duplicates
}

/// Happy-path exchanges until the sender's next sequence equals `target`.
void advance_sequence_to(ArqSender& sender, ArqReceiver& receiver,
                         std::uint16_t target) {
  while (sender.next_sequence() != target) {
    ASSERT_TRUE(sender.submit({0x11}));
    const auto frame = sender.frame_to_send();
    ASSERT_TRUE(frame.has_value());
    const auto result = receiver.on_data(*frame);
    ASSERT_TRUE(result.ack.has_value());
    ASSERT_TRUE(sender.on_ack(*result.ack));
  }
}

TEST(Arq, SequenceWrapsAroundCleanly) {
  // Drive the uint16 sequence through the full space and across the wrap:
  // 65535 -> 0 must behave exactly like any other increment.
  ArqSender sender(1, 2);
  ArqReceiver receiver(2);
  advance_sequence_to(sender, receiver, 65535);
  EXPECT_EQ(sender.next_sequence(), 65535u);

  // The wrap exchange itself.
  ASSERT_TRUE(sender.submit({0xFF}));
  const auto frame = sender.frame_to_send();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->sequence, 65535u);
  const auto result = receiver.on_data(*frame);
  ASSERT_TRUE(result.ack.has_value());
  EXPECT_TRUE(result.fresh);
  ASSERT_TRUE(sender.on_ack(*result.ack));
  EXPECT_EQ(sender.next_sequence(), 0u);

  // Post-wrap, sequence 0 is a fresh payload, not a duplicate of the
  // very first exchange.
  ASSERT_TRUE(sender.submit({0x00}));
  const auto wrapped = sender.frame_to_send();
  ASSERT_TRUE(wrapped.has_value());
  EXPECT_EQ(wrapped->sequence, 0u);
  const auto wrapped_result = receiver.on_data(*wrapped);
  ASSERT_TRUE(wrapped_result.ack.has_value());
  EXPECT_TRUE(wrapped_result.fresh);
  EXPECT_TRUE(sender.on_ack(*wrapped_result.ack));
}

TEST(Arq, WraparoundSurvivesDataLossAndDuplicateAcks) {
  // The wrap exchange under fire: the 65535-sequence data frame is lost
  // once, then delivered but its ACK lost (forcing a duplicate + dup-ACK),
  // and the retransmitted ACK completes the transfer across the wrap.
  ArqSender sender(1, 2);
  ArqReceiver receiver(2);
  advance_sequence_to(sender, receiver, 65535);

  ASSERT_TRUE(sender.submit({0xEE}));
  // Attempt 1: data frame lost on the air.
  ASSERT_TRUE(sender.frame_to_send().has_value());
  ASSERT_TRUE(sender.on_timeout());
  // Attempt 2: data delivered, ACK lost.
  const auto retry = sender.frame_to_send();
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->sequence, 65535u);
  const auto first_rx = receiver.on_data(*retry);
  ASSERT_TRUE(first_rx.ack.has_value());
  EXPECT_TRUE(first_rx.fresh);
  ASSERT_TRUE(sender.on_timeout());  // the ACK never arrived
  // Attempt 3: duplicate data; receiver must re-ACK without re-delivering.
  const auto dup = sender.frame_to_send();
  ASSERT_TRUE(dup.has_value());
  const auto dup_rx = receiver.on_data(*dup);
  ASSERT_TRUE(dup_rx.ack.has_value());
  EXPECT_FALSE(dup_rx.fresh);
  EXPECT_TRUE(sender.on_ack(*dup_rx.ack));
  EXPECT_EQ(sender.next_sequence(), 0u);
  EXPECT_EQ(receiver.duplicates(), 1u);

  // A stale 65535 dup-ACK arriving after the wrap must not complete the
  // NEXT transfer (sequence 0).
  ASSERT_TRUE(sender.submit({0x01}));
  EXPECT_FALSE(sender.on_ack(*first_rx.ack));
  const auto next = sender.frame_to_send();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->sequence, 0u);
  const auto next_rx = receiver.on_data(*next);
  ASSERT_TRUE(next_rx.ack.has_value());
  EXPECT_TRUE(next_rx.fresh);
  EXPECT_TRUE(sender.on_ack(*next_rx.ack));
}

TEST(Arq, WraparoundDropAdvancesSequenceToZero) {
  // Exhausting the retry budget at sequence 65535 must wrap the sequence
  // to 0 for the next transfer, exactly like a delivery would.
  ArqSender sender(1, 2);
  ArqReceiver receiver(2);
  advance_sequence_to(sender, receiver, 65535);
  ASSERT_TRUE(sender.submit({0xDD}));
  for (unsigned i = 0; i < kMaxRetransmissions; ++i) {
    EXPECT_TRUE(sender.on_timeout());
  }
  EXPECT_FALSE(sender.on_timeout());  // budget exhausted, dropped
  EXPECT_TRUE(sender.idle());
  EXPECT_EQ(sender.dropped(), 1u);
  EXPECT_EQ(sender.next_sequence(), 0u);
}

}  // namespace
}  // namespace braidio::mac
