// Layer probes: drive one layer's public API at the shape the workload's
// own counters report, and time it.
//
// A probe cannot see inside a run, so what it returns is an estimate of
// the layer's cost per call, not self time measured in the run. Each probe
// repeats its loop a few times and returns the median, in nanoseconds per
// call. The per-layer report multiplies it by the run's exact call count to
// get the layer's `est_s`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hal/channel_model.hpp"
#include "net/topology.hpp"

namespace perfbench {

/// Shape of a run's calendar queue, from NetStats.
struct QueueShape {
  std::uint64_t events = 0;     // pops over the run
  std::uint64_t depth = 0;      // peak live events
  double elapsed_s = 0.0;       // simulated span
};

/// ns per EventQueue operation (one schedule or one pop) in a hold loop
/// that keeps `depth` events live and advances time as the run did.
double probe_event_queue_ns(const QueueShape& shape, std::uint64_t seed);

/// ns per SharedMedium query (interference_penalty_db or ambient_dbm) with
/// `active` transmitters on the air over `positions`.
double probe_medium_ns(const std::vector<braidio::net::Vec2>& positions,
                       std::size_t active);

/// One planned link of the run: what the BER path evaluates.
struct LinkSample {
  braidio::hal::LinkMode mode = braidio::hal::LinkMode::Active;
  braidio::hal::Bitrate rate = braidio::hal::Bitrate::M1;
  double distance_m = 0.0;
};

/// ns per link SNR + BER evaluation (ChannelModel::snr_db then
/// ber_from_snr_db), cycling over the run's planned links.
double probe_ber_ns(const braidio::hal::ChannelModel& channel,
                    const std::vector<LinkSample>& links);

/// ns per EnergyLedger::charge, cycling over the categories a radio posts.
double probe_ledger_ns();

/// Seconds to construct `count` util::Rng::stream engines, as the network
/// simulator's constructor does per node and SweepRunner per point. An
/// engine's first draw, which generates its state block, is not included:
/// the library pays it later, in the run.
double time_streams(std::uint64_t seed, std::size_t count);

/// ns per OffloadPlanner::plan over the catalog's device pairs, with the
/// candidates the braidio backend offers at the sweep's distances.
double probe_offload_ns(const std::vector<double>& distances_m);

}  // namespace perfbench
