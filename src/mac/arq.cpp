#include "mac/arq.hpp"

#include "obs/obs.hpp"
#include "util/contract.hpp"

namespace braidio::mac {

ArqSender::ArqSender(std::uint8_t source, std::uint8_t destination)
    : source_(source), destination_(destination) {}

bool ArqSender::submit(std::vector<std::uint8_t> payload) {
  BRAIDIO_REQUIRE(payload.size() <= kMaxPayloadBytes, "payload_bytes",
                  payload.size());
  if (in_flight_) return false;
  payload_ = std::move(payload);
  in_flight_ = true;
  attempts_ = 0;
  return true;
}

std::optional<Frame> ArqSender::frame_to_send() const {
  if (!in_flight_) return std::nullopt;
  Frame frame;
  frame.type = FrameType::Data;
  frame.source = source_;
  frame.destination = destination_;
  frame.sequence = sequence_;
  frame.payload = payload_;
  return frame;
}

bool ArqSender::on_ack(const Frame& ack) {
  if (!in_flight_) return false;
  if (ack.type != FrameType::Ack) return false;
  if (ack.destination != source_ || ack.source != destination_) return false;
  if (ack.sequence != sequence_) return false;
  in_flight_ = false;
  ++sequence_;
  ++delivered_;
  return true;
}

bool ArqSender::on_timeout() {
  if (!in_flight_) return false;
  if (attempts_ >= kMaxRetransmissions) {
    in_flight_ = false;
    ++sequence_;  // never reuse the sequence of a dropped frame
    ++dropped_;
    obs::count(obs::Counter::ArqDrops);
    return false;
  }
  ++attempts_;
  obs::count(obs::Counter::ArqRetries);
  BRAIDIO_TRACE_EVENT(obs::EventType::ArqRetry, "stop-and-wait",
                      obs::no_sim_time(),
                      static_cast<double>(attempts_));
  BRAIDIO_INVARIANT(attempts_ <= kMaxRetransmissions, "attempts",
                    attempts_, "budget", kMaxRetransmissions);
  return true;
}

ArqReceiver::ArqReceiver(std::uint8_t address) : address_(address) {}

ArqReceiver::Result ArqReceiver::on_data(const Frame& frame) {
  Result result;
  if (frame.type != FrameType::Data || frame.destination != address_) {
    return result;
  }
  Frame ack;
  ack.type = FrameType::Ack;
  ack.source = address_;
  ack.destination = frame.source;
  ack.sequence = frame.sequence;
  result.ack = std::move(ack);
  if (!last_sequence_ || *last_sequence_ != frame.sequence) {
    last_sequence_ = frame.sequence;
    result.fresh = true;
    ++fresh_;
  } else {
    ++duplicates_;
  }
  return result;
}

}  // namespace braidio::mac
