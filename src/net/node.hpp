// One simulated device: a HAL radio endpoint plus the per-node state the
// network simulator drives around it.
//
// A Node owns its radio (battery + ledger + operating point), a private
// deterministic RNG stream (stream index == node index, so contention
// resolution never depends on sweep threading), its CSMA-CA state
// machine, a relay queue of frame origins waiting to be forwarded toward
// the hub, the in-flight transfer the ARQ loop is currently retrying,
// and its NodeStats, the only per-node counter store (net/netstats.hpp).
// Everything the simulator mutates per event lives here; the Node itself
// has no behavior beyond queue bookkeeping — protocol logic stays in
// NetworkSimulator so it reads as one event loop.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hal/radio.hpp"
#include "net/csma.hpp"
#include "net/netstats.hpp"
#include "util/rng.hpp"

namespace braidio::net {

/// A frame waiting in a relay queue, carrying the identity the flight
/// recorder threads from origin to hub: the originating node, a
/// run-unique packet id, and the simulated time the packet was first
/// dequeued at its origin (< 0 until then).
struct QueuedPacket {
  std::uint32_t origin = 0;
  std::uint64_t packet_id = 0;
  double birth_s = -1.0;
};

class Node {
 public:
  /// A frame making its way toward the hub: which node originated it,
  /// which neighbor this hop is addressed to, and how many times this
  /// hop has been attempted. packet_id/birth_s thread the flight
  /// recorder's lifecycle identity across hops.
  struct Transfer {
    bool active = false;
    std::uint32_t origin = 0;
    std::uint32_t dest = 0;
    unsigned attempts = 0;
    std::uint64_t packet_id = 0;
    double birth_s = -1.0;
  };

  /// Takes ownership of `radio` (must be non-null).
  Node(std::uint32_t index, std::unique_ptr<hal::IRadio> radio,
       util::Rng rng);

  std::uint32_t index() const { return index_; }
  hal::IRadio& radio() { return *radio_; }
  const hal::IRadio& radio() const { return *radio_; }
  util::Rng& rng() { return rng_; }
  CsmaCa& csma() { return csma_; }
  NodeStats& stats() { return stats_; }
  const NodeStats& stats() const { return stats_; }
  Transfer& transfer() { return transfer_; }

  bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  /// FIFO of frames waiting at this node for their next hop.
  void enqueue(const QueuedPacket& packet);
  bool queue_empty() const { return head_ == queue_.size(); }
  std::size_t backlog() const { return queue_.size() - head_; }
  /// Pop the oldest queued frame; precondition !queue_empty().
  QueuedPacket dequeue();

 private:
  std::uint32_t index_;
  std::unique_ptr<hal::IRadio> radio_;
  util::Rng rng_;
  CsmaCa csma_;
  NodeStats stats_;
  Transfer transfer_;
  std::vector<QueuedPacket> queue_;
  std::size_t head_ = 0;
  bool alive_ = true;
};

}  // namespace braidio::net
