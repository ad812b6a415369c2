// The Myrinet mapper (§3-4).
//
// GM's mapper explores the fabric with probe packets, assembles a topology
// database, computes a route between every pair of hosts and downloads each
// host's row into its NIC SRAM. The paper modifies the route-computation
// step to emit ITB routes (Fig. 3b format); everything else is stock.
//
// We reproduce the algorithmic substrate: a depth-first probe walk that
// discovers every switch, port and host (counting probes the way the real
// mapper pays packets), followed by up*/down* orientation and route-table
// construction under either policy.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "itb/routing/table.hpp"
#include "itb/topo/topology.hpp"

namespace itb::mapper {

/// Outcome of the probe walk.
struct DiscoveryReport {
  /// The reconstructed fabric. Switch indices are in discovery order;
  /// host indices are the true GM host ids (learned from probe replies).
  topo::Topology discovered;

  /// discovered switch index -> true switch index (for tests; the real
  /// mapper never knows the "true" numbering).
  std::vector<std::uint16_t> switch_of;

  /// Probe packets spent: one per port scan, plus one reply per answer.
  std::uint64_t probes_sent = 0;

  /// Heap allocations made by the probe walk itself (discovery-report
  /// assembly excluded). The walk pre-sizes everything from the fabric, so
  /// this must stay 0 whatever the fabric size — the scale suite asserts it
  /// through the sim::alloc_hook oracle. Always 0 when allocation counting
  /// is unavailable (sanitizer builds).
  std::uint64_t walk_heap_allocs = 0;

  std::size_t switches_found() const { return discovered.switch_count(); }
  std::size_t hosts_found() const { return discovered.host_count(); }
};

/// Walk the fabric starting from `root_host`'s uplink switch. The walk is
/// deterministic: ports are scanned in ascending order, new switches are
/// visited depth-first (an explicit-stack DFS — fabric depth costs heap
/// bytes, never native stack frames, so an 8192-switch chain discovers
/// fine). Unattached ports cost one (unanswered) probe each.
/// With `allow_partial` the walk tolerates unreachable hosts (remapping a
/// fabric degraded by fault windows); they stay unattached in `discovered`.
/// Otherwise unreachable hosts are a mapping error and throw.
DiscoveryReport discover(const topo::Topology& fabric, std::uint16_t root_host,
                         bool allow_partial = false);

/// The mapper's live view of which switches and hosts its probes can reach
/// under a link-usability mask, in TRUE fabric coordinates (no discovery
/// renumbering — the incremental recovery engine keeps ids stable across
/// fault epochs so route-table patches and reverse indexes stay valid).
struct ReachabilityMap {
  std::vector<char> switch_up;  // true switch id -> reachable from the root
  std::vector<char> host_up;    // host id -> attached via a usable uplink
  std::uint16_t root_switch = 0xFFFF;
  /// Probe packets this pass charged (one per port of every switch scanned).
  std::uint64_t probes_sent = 0;
  /// What a from-scratch walk over the same reachable region would pay —
  /// the scoped/full ratio the recovery bench reports.
  std::uint64_t full_walk_probes = 0;
};

/// Full reachability flood from `root_host`'s uplink over links with
/// `link_up[l]` true (empty mask = all up). Charges a full walk's probes.
/// Throws if the root host is out of range, unattached, or masked off.
ReachabilityMap discover_reachability(const topo::Topology& fabric,
                                      std::uint16_t root_host,
                                      const std::vector<char>& link_up);

/// Scoped re-probe after a fault/restore round: the mapper already holds
/// `prev` and only `changed_links` flipped usability, so it re-scans just
/// (a) reachable switches incident to a changed link (the fault boundary)
/// and (b) switches newly reachable since `prev` (the subtree a restored
/// link exposes). The returned map is exactly what discover_reachability
/// would produce; only the probe accounting differs — probes_sent counts
/// the scoped scan, full_walk_probes the walk it replaced. Falls back to
/// full-walk accounting when `prev` is from a different root or fabric.
ReachabilityMap rediscover_scoped(const topo::Topology& fabric,
                                  std::uint16_t root_host,
                                  const std::vector<char>& link_up,
                                  const ReachabilityMap& prev,
                                  const std::vector<topo::LinkId>& changed_links);

/// Full mapper run: discover, orient (root = first discovered switch),
/// compute the all-pairs table under `policy`. The returned table's routes
/// are valid on the real fabric because the discovered graph is
/// port-faithful. `route_jobs` fans the per-switch route solves across
/// that many threads (0 = hardware concurrency); the table is bit-identical
/// for any value, so it defaults to 1 — callers inside an already-parallel
/// sweep stay single-threaded, the scale bench opts in.
struct MapResult {
  DiscoveryReport report;
  routing::RouteTable table;
};
MapResult run(const topo::Topology& fabric, routing::Policy policy,
              std::uint16_t root_host = 0,
              routing::ItbHostSelection selection =
                  routing::ItbHostSelection::kLowestIndex,
              bool allow_partial = false, unsigned route_jobs = 1,
              unsigned vc_lanes = 2);

}  // namespace itb::mapper
