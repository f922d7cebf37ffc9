#include "net/node.hpp"

#include <utility>

#include "util/contract.hpp"

namespace braidio::net {

Node::Node(std::uint32_t index, std::unique_ptr<hal::IRadio> radio,
           util::Rng rng)
    : index_(index), radio_(std::move(radio)), rng_(rng) {
  BRAIDIO_REQUIRE(radio_ != nullptr, "index", index);
}

void Node::enqueue(const QueuedPacket& packet) {
  // Compact the consumed prefix once it dominates the buffer, so a
  // long-lived relay queue stays O(backlog) in memory with amortized
  // O(1) push/pop and no deque allocation churn on the hot path.
  if (head_ > 64 && head_ * 2 > queue_.size()) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  queue_.push_back(packet);
}

QueuedPacket Node::dequeue() {
  BRAIDIO_REQUIRE(!queue_empty(), "index", index_);
  return queue_[head_++];
}

}  // namespace braidio::net
