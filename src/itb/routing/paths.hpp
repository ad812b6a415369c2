// Host-to-host route computation.
//
// Three route families:
//   * up*/down* — shortest path whose switch-switch traversals form the
//     pattern up* down* (no up after a down). What stock Myrinet/GM uses.
//   * minimal  — unrestricted shortest path; may be up*/down*-invalid.
//   * ITB      — minimal path split into valid up*/down* sub-paths by
//     ejecting/re-injecting at in-transit hosts (the paper's mechanism).
//
// A HostPath carries both the structural description (switch sequence,
// in-transit hosts) and the wire encoding (route-byte segments, Fig. 3).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "itb/packet/format.hpp"
#include "itb/routing/updown.hpp"
#include "itb/topo/topology.hpp"

namespace itb::routing {

/// Which restriction a route table is computed under. Lives here (not in
/// table.hpp) so the route solver can take it without a header cycle.
enum class Policy : std::uint8_t {
  kUpDown,    // stock GM routing
  kItb,       // minimal routing legalised with in-transit buffers
  kVcEscape,  // minimal routing legalised with virtual-channel lanes
};

const char* to_string(Policy p);

/// A computed route between two hosts.
struct HostPath {
  std::uint16_t src_host = 0;
  std::uint16_t dst_host = 0;

  /// Route-byte segments: one per injection. segments[0] is stamped by the
  /// source NIC; segments[i>0] follow the i-th ITB tag (Fig. 3b).
  std::vector<packet::Route> segments;

  /// In-transit hosts, one per segment boundary (empty for plain routes).
  std::vector<std::uint16_t> in_transit_hosts;

  /// Switch-switch links traversed, in order (ejections do not interrupt
  /// the sequence; used for hop counting and deadlock analysis).
  std::vector<topo::Channel> trunk_channels;

  /// Total switch traversals (each ITB revisit counts; equals the sum of
  /// segment lengths).
  std::size_t switch_traversals() const;

  /// Number of switch-switch links used (the paper's path-length metric).
  std::size_t trunk_hops() const { return trunk_channels.size(); }

  std::size_t itb_count() const { return in_transit_hosts.size(); }
};

/// Which host on a switch serves as the in-transit host when several are
/// available. kLowestIndex mirrors the simplest mapper; kSpread hashes the
/// (src, dst) pair over the candidates so the forwarding load (and the NIC
/// CPU cost it carries) is distributed across the switch's hosts.
enum class ItbHostSelection : std::uint8_t { kLowestIndex, kSpread };

/// Route computation over one topology + one up*/down* orientation.
class Router {
 public:
  explicit Router(const UpDown& updown,
                  ItbHostSelection selection = ItbHostSelection::kLowestIndex);

  /// Shortest valid up*/down* route. Always exists in a connected network.
  HostPath updown_route(std::uint16_t src_host, std::uint16_t dst_host) const;

  /// Unrestricted shortest route (may be invalid under up*/down*); useful
  /// for analysis and as the skeleton for ITB routes.
  HostPath minimal_route(std::uint16_t src_host, std::uint16_t dst_host) const;

  /// Minimal route split into valid up*/down* segments with ITBs. Falls
  /// back to updown_route when no minimal path can be legalised (e.g. an
  /// ITB would be needed at a switch with no attached host anywhere on any
  /// minimal path).
  HostPath itb_route(std::uint16_t src_host, std::uint16_t dst_host) const;

  /// Rows of every host in `sources` under `policy`. The sources must be
  /// usable hosts on ONE switch: the search is destination-blind and
  /// depends only on that switch and the policy, so the switch pays one
  /// search (plus at most one escape search under kVcEscape) and every
  /// source shares it; only the per-pair extraction, whose ITB host pick
  /// sees the source host, runs per row. Row s is written in place to
  /// table[s * host_count + d] for every d: an empty HostPath for d == s
  /// and for unusable or unreachable destinations. Paths are identical to
  /// calling updown_route()/itb_route() per pair — the primitive
  /// RouteTable parallelises over source switches.
  ///
  /// `vc_lanes` only matters under Policy::kVcEscape: a minimal route is
  /// kept when its up*/down* segment count fits the lane ladder
  /// (updown_segments() <= vc_lanes); otherwise the pair falls back to the
  /// plain up*/down* route, which rides lane 0 end to end.
  void solve_rows(const std::vector<std::uint16_t>& sources, Policy policy,
                  unsigned vc_lanes, HostPath* table) const;

  /// Trunk-hop distance of the unrestricted shortest path.
  std::size_t minimal_distance(std::uint16_t src_host,
                               std::uint16_t dst_host) const;

  /// Number of maximal up*/down*-valid segments in the traversal sequence:
  /// 1 + the number of down->up transitions (1 for an empty or fully valid
  /// sequence). The VC-escape engine assigns segment j to lane j, so a
  /// minimal route is ladder-feasible iff updown_segments() <= lane count.
  std::size_t updown_segments(const std::vector<topo::Channel>& trunks) const;

  /// True if the switch-link traversal sequence obeys up* down*.
  bool is_valid_updown(const std::vector<topo::Channel>& trunks) const {
    return updown_segments(trunks) == 1;
  }

  /// True when `host` can source/sink traffic under the orientation's link
  /// mask: attached, and its uplink usable.
  bool host_usable(std::uint16_t host) const;

  /// True when the switch has at least one usable attached host (an ITB
  /// candidate / phase-reset point).
  bool has_itb_host(std::uint16_t sw) const { return !itb_hosts_[sw].empty(); }

  /// Unrestricted BFS hop distances from one switch over the usable trunk
  /// graph (0xFFFFFFFF = unreachable). These are the minimal trunk-hop
  /// distances out of the switch (RouteTable::minimal_fraction reads them
  /// per source switch), and since hops are the primary key of the lex
  /// search cost they lower-bound every restricted route — the incremental
  /// patcher's attraction test builds on that.
  std::vector<std::uint32_t> min_hops_from_switch(std::uint16_t sw) const;

  const UpDown& updown() const { return *updown_; }
  const topo::Topology& topology() const { return updown_->topology(); }

 private:
  const UpDown* updown_;

  struct Hop {
    topo::LinkId link;
    std::uint16_t to_switch;
    std::uint8_t out_port;  // port on the *from* switch
    bool up;
  };
  /// Adjacency: for each switch, its usable outgoing trunk hops.
  std::vector<std::vector<Hop>> adj_;
  ItbHostSelection selection_;
  struct ItbCandidate {
    std::uint16_t host;
    std::uint8_t port;  // switch port leading to it
  };
  /// For each switch, its attached hosts usable as in-transit hosts,
  /// sorted by host index.
  std::vector<std::vector<ItbCandidate>> itb_hosts_;

  /// Pick the in-transit host on `sw` for the (src, dst) pair.
  const ItbCandidate& pick_itb(std::uint16_t sw, std::uint16_t src,
                               std::uint16_t dst) const;

  // ---- Per-switch search machinery -------------------------------------
  // The Dijkstra over (switch, up*/down* phase) states is destination-blind:
  // it relaxes the whole fabric from the source switch and only the
  // extraction step looks at the pair. Splitting the two lets solve_rows()
  // pay one search for every row out of a switch.

  struct SearchCost {
    std::uint32_t hops = 0xFFFFFFFFu;
    std::uint32_t itbs = 0xFFFFFFFFu;
    friend auto operator<=>(const SearchCost&, const SearchCost&) = default;
  };
  struct SearchPred {
    std::uint16_t sw = 0xFFFF;
    std::uint8_t phase = 0;
    /// Index into adj_[pred.sw] of the hop taken, or -1 for an ITB reset
    /// (same switch, phase 1 -> 0).
    int hop = -2;  // -2 = unset / source
  };
  /// Full relaxation result from one source switch.
  struct Search {
    std::uint16_t src_switch = 0;
    std::vector<std::array<SearchCost, 2>> dist;  // [switch][phase]
    std::vector<std::array<SearchPred, 2>> pred;
    bool reaches(std::uint16_t sw) const {
      return dist[sw][0].hops != 0xFFFFFFFFu || dist[sw][1].hops != 0xFFFFFFFFu;
    }
  };
  /// One step of a route: the hop (adj index) taken out of `sw`, or -1 for
  /// an ITB reset at `sw`.
  struct Step {
    std::uint16_t sw;
    int hop;
  };
  /// Heap entry of the search: (cost, switch, phase).
  struct QEntry {
    SearchCost cost;
    std::uint16_t sw;
    std::uint8_t phase;
  };
  /// Buffers one task reuses across its searches and extractions, so a
  /// route costs only its own vectors.
  struct Scratch {
    std::vector<QEntry> heap;
    std::vector<Step> steps;  // one route's steps, destination first
  };

  void relax(std::uint16_t src_switch, bool restrict_updown, bool allow_itb,
             Search& out, Scratch& scratch) const;
  /// Walk the pred chain from dst_switch back to the source into
  /// scratch.steps (destination first).
  void walk(const Search& s, std::uint16_t dst_switch, Scratch& scratch) const;
  /// Materialise the walked route with every vector at its exact size;
  /// `dst_port` is the switch port of the destination's uplink.
  HostPath build(const Scratch& scratch, std::uint16_t src_host,
                 std::uint16_t dst_host, std::uint8_t dst_port) const;

  /// The ONE mapping from a policy to its primary search restriction. Every
  /// route-solve entry point derives its flags here, so a policy with no
  /// routing restriction (kVcEscape's minimal lanes) is just another row of
  /// this table — no caller special-cases it, and minimal_fraction reports
  /// 100% for it without a policy branch.
  struct SolveFlags {
    bool restrict_updown;
    bool allow_itb;
  };
  static SolveFlags solve_flags(Policy policy);

  HostPath search(std::uint16_t src_host, std::uint16_t dst_host,
                  bool restrict_updown, bool allow_itb) const;
};

/// Render a path like "h0 -> s0 -> s1 =ITB(h3)=> s1 -> s2 -> h5".
std::string describe(const HostPath& path, const topo::Topology& topo);

}  // namespace itb::routing
