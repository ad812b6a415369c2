// Virtual-lane policy interface.
//
// A physical directed channel can be split into several virtual lanes, each
// with its own flit buffer and waiter FIFO; a worm occupies exactly one lane
// of every channel it crosses. Which lane is a pure, deterministic function
// of the worm's lane state and the next channel — the LanePolicy below —
// so multi-lane runs stay bit-identical for any --jobs, and the per-lane
// channel dependency graph (routing::DependencyGraph with lane_count > 1)
// can verify an engine's deadlock-freedom claim statically.
//
// The interface is deliberately tiny: itb::engine::DeadlockEngine
// implements it for every deadlock-freedom mechanism; the network reads
// lane_count() at install time and calls lane_for() on the hot path, never
// allocating for it.
#pragma once

#include <cstdint>

#include "itb/topo/topology.hpp"

namespace itb::net {

/// Per-worm lane-selection state, carried in the Worm and mutated by
/// LanePolicy::lane_for once per traversal. Every worm starts at
/// LaneState{} (lane 0, flags clear); POD so warm worm recycling resets it
/// with two byte stores.
struct LaneState {
  std::uint8_t lane = 0;   // lane the worm currently rides
  std::uint8_t flags = 0;  // policy-private (VC ladder: saw-a-down bit)
};

/// Lane selection policy. lane_count() is fixed for the policy's life; the
/// network sizes its per-lane tables from it at install time
/// (Network::set_lane_policy), never mid-traffic.
class LanePolicy {
 public:
  virtual ~LanePolicy() = default;

  /// Lanes per physical directed channel (>= 1, <= 255).
  virtual unsigned lane_count() const = 0;

  /// Lane for the next traversal `next`, called exactly once per traversal
  /// in route order (the result is captured before the channel request is
  /// scheduled, so a grant after a wait never re-evaluates it). Mutates
  /// `state` — a ladder policy ratchets the lane upward on down->up
  /// transitions. Must return < lane_count().
  virtual std::uint8_t lane_for(LaneState& state, topo::Channel next) const = 0;
};

}  // namespace itb::net
