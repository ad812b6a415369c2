#include "itb/routing/paths.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace itb::routing {

std::size_t HostPath::switch_traversals() const {
  std::size_t n = 0;
  for (const auto& s : segments) n += s.size();
  return n;
}

Router::Router(const UpDown& updown, ItbHostSelection selection)
    : updown_(&updown), selection_(selection) {
  const auto& topo = updown.topology();
  adj_.resize(topo.switch_count());
  itb_hosts_.resize(topo.switch_count());

  for (topo::LinkId lid = 0; lid < topo.link_count(); ++lid) {
    // Masked-down, self-cable, and cut-off links never enter the search
    // graph (link_usable covers all three; without a mask it reduces to the
    // old self-cable check).
    if (!updown.link_usable(lid)) continue;
    const auto& l = topo.link(lid);
    const bool a_sw = l.a.node.kind == topo::NodeKind::kSwitch;
    const bool b_sw = l.b.node.kind == topo::NodeKind::kSwitch;
    if (a_sw && b_sw) {
      const auto sa = l.a.node.index;
      const auto sb = l.b.node.index;
      adj_[sa].push_back(Hop{lid, sb, l.a.port, updown.is_up_traversal(lid, sa)});
      adj_[sb].push_back(Hop{lid, sa, l.b.port, updown.is_up_traversal(lid, sb)});
      continue;
    }
    // Usable host link: every reachable attached host is an ITB candidate.
    const auto sw_end = a_sw ? l.a : l.b;
    const auto host_end = a_sw ? l.b : l.a;
    itb_hosts_[sw_end.node.index].push_back(
        ItbCandidate{host_end.node.index, sw_end.port});
  }
  for (auto& hosts : itb_hosts_)
    std::sort(hosts.begin(), hosts.end(),
              [](const ItbCandidate& a, const ItbCandidate& b) {
                return a.host < b.host;
              });
}

const Router::ItbCandidate& Router::pick_itb(std::uint16_t sw,
                                             std::uint16_t src,
                                             std::uint16_t dst) const {
  const auto& hosts = itb_hosts_[sw];
  if (hosts.empty()) throw std::logic_error("no ITB host on switch");
  if (selection_ == ItbHostSelection::kLowestIndex) return hosts.front();
  // Deterministic spread: hash the pair over the candidates.
  const std::size_t idx =
      (static_cast<std::size_t>(src) * 31 + dst) % hosts.size();
  return hosts[idx];
}

namespace {

/// Dijkstra state: a switch plus the up*/down* phase. Phase 0: no down
/// traversal yet (up and down both legal). Phase 1: a down traversal
/// happened (only down legal until an ITB resets the phase).
struct State {
  std::uint16_t sw;
  std::uint8_t phase;
};

}  // namespace

Router::Search Router::relax(std::uint16_t src_switch, bool restrict_updown,
                             bool allow_itb) const {
  const auto n = updown_->topology().switch_count();

  Search out;
  out.src_switch = src_switch;
  // dist[sw][phase]; with restrictions off everything stays in phase 0.
  out.dist.resize(n);
  out.pred.resize(n);
  auto& dist = out.dist;
  auto& pred = out.pred;

  using QEntry = std::pair<SearchCost, State>;
  // Canonical pop order: (cost, switch, phase). With cost-only ordering the
  // winner among equal-cost states depends on heap internals (push order);
  // breaking ties on state id makes every pred assignment a pure function
  // of the search graph, which the incremental patcher relies on — a source
  // whose stored routes avoid all changed links provably re-solves to the
  // byte-identical row, so it can be skipped.
  auto cmp = [](const QEntry& a, const QEntry& b) {
    if (a.first != b.first) return a.first > b.first;
    if (a.second.sw != b.second.sw) return a.second.sw > b.second.sw;
    return a.second.phase > b.second.phase;
  };
  std::priority_queue<QEntry, std::vector<QEntry>, decltype(cmp)> queue(cmp);

  dist[src_switch][0] = SearchCost{0, 0};
  pred[src_switch][0] = SearchPred{0xFFFF, 0, -2};
  queue.push({SearchCost{0, 0}, State{src_switch, 0}});

  while (!queue.empty()) {
    auto [cost, st] = queue.top();
    queue.pop();
    if (cost != dist[st.sw][st.phase]) continue;  // stale entry

    for (std::size_t hi = 0; hi < adj_[st.sw].size(); ++hi) {
      const Hop& h = adj_[st.sw][hi];
      std::uint8_t next_phase;
      if (!restrict_updown) {
        next_phase = 0;
      } else if (h.up) {
        if (st.phase == 1) continue;  // down -> up forbidden
        next_phase = 0;
      } else {
        next_phase = 1;
      }
      const SearchCost next{cost.hops + 1, cost.itbs};
      if (next < dist[h.to_switch][next_phase]) {
        dist[h.to_switch][next_phase] = next;
        pred[h.to_switch][next_phase] =
            SearchPred{st.sw, st.phase, static_cast<int>(hi)};
        queue.push({next, State{h.to_switch, next_phase}});
      }
    }

    // ITB reset: eject at a host on this switch, re-inject in phase 0.
    if (allow_itb && restrict_updown && st.phase == 1 &&
        !itb_hosts_[st.sw].empty()) {
      const SearchCost next{cost.hops, cost.itbs + 1};
      if (next < dist[st.sw][0]) {
        dist[st.sw][0] = next;
        pred[st.sw][0] = SearchPred{st.sw, 1, -1};
        queue.push({next, State{st.sw, 0}});
      }
    }
  }
  return out;
}

HostPath Router::extract(const Search& s, std::uint16_t src_host,
                         std::uint16_t dst_host) const {
  const auto& topo = updown_->topology();
  const auto dst_up = topo.host_uplink(dst_host);
  const auto ss = s.src_switch;
  const auto sd = dst_up.node.index;
  const auto& dist = s.dist;
  const auto& pred = s.pred;

  const std::uint8_t best_phase = dist[sd][0] <= dist[sd][1] ? 0 : 1;
  if (dist[sd][best_phase].hops == std::numeric_limits<std::uint32_t>::max())
    throw std::logic_error("no route between hosts (disconnected?)");

  // Reconstruct the (switch, action) chain back to front.
  struct Step {
    std::uint16_t sw;
    int hop;  // adj index, or -1 for ITB reset at sw
  };
  std::vector<Step> steps;
  State cur{sd, best_phase};
  while (!(cur.sw == ss && cur.phase == 0 && pred[cur.sw][cur.phase].hop == -2)) {
    const SearchPred& p = pred[cur.sw][cur.phase];
    if (p.hop == -2) throw std::logic_error("route reconstruction failed");
    steps.push_back(Step{p.sw, p.hop});
    cur = State{p.sw, p.phase};
  }
  std::reverse(steps.begin(), steps.end());

  // Emit route-byte segments and channel list.
  HostPath path;
  path.src_host = src_host;
  path.dst_host = dst_host;
  path.segments.emplace_back();
  for (const Step& st : steps) {
    if (st.hop == -1) {
      // Ejection: current segment ends with the port to the in-transit
      // host; the next segment resumes at the same switch.
      const ItbCandidate& itb = pick_itb(st.sw, src_host, dst_host);
      path.segments.back().push_back(itb.port);
      path.in_transit_hosts.push_back(itb.host);
      path.segments.emplace_back();
      continue;
    }
    const Hop& h = adj_[st.sw][static_cast<std::size_t>(st.hop)];
    path.segments.back().push_back(h.out_port);
    const auto& l = topo.link(h.link);
    const bool fwd = l.a.node == topo::switch_id(st.sw) && l.a.port == h.out_port;
    path.trunk_channels.push_back(topo::Channel{h.link, fwd});
  }
  path.segments.back().push_back(dst_up.port);
  return path;
}

HostPath Router::search(std::uint16_t src_host, std::uint16_t dst_host,
                        bool restrict_updown, bool allow_itb) const {
  const auto& topo = updown_->topology();
  const auto ss = topo.host_uplink(src_host).node.index;
  return extract(relax(ss, restrict_updown, allow_itb), src_host, dst_host);
}

bool Router::host_usable(std::uint16_t host) const {
  const auto& topo = updown_->topology();
  if (!topo.host_attached(host)) return false;
  const auto lid = topo.link_at(topo::host_id(host), 0);
  return lid && updown_->link_usable(*lid);
}

std::vector<std::uint32_t> Router::min_hops_from_switch(std::uint16_t sw) const {
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(adj_.size(), kInf);
  std::vector<std::uint16_t> frontier;
  frontier.reserve(adj_.size());
  dist[sw] = 0;
  frontier.push_back(sw);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const auto cur = frontier[head];
    for (const Hop& h : adj_[cur]) {
      if (dist[h.to_switch] != kInf) continue;
      dist[h.to_switch] = dist[cur] + 1;
      frontier.push_back(h.to_switch);
    }
  }
  return dist;
}

Router::SolveFlags Router::solve_flags(Policy policy) {
  switch (policy) {
    case Policy::kUpDown:
      return {/*restrict_updown=*/true, /*allow_itb=*/false};
    case Policy::kItb:
      return {/*restrict_updown=*/true, /*allow_itb=*/true};
    case Policy::kVcEscape:
      // Minimal lanes carry the primary search; the escape lane's
      // restricted routes are solved lazily per source when the ladder
      // cannot absorb a minimal path.
      return {/*restrict_updown=*/false, /*allow_itb=*/false};
  }
  return {/*restrict_updown=*/true, /*allow_itb=*/false};  // unreachable
}

std::vector<HostPath> Router::routes_from(std::uint16_t src_host, Policy policy,
                                          unsigned vc_lanes) const {
  const auto& topo = updown_->topology();
  constexpr auto kInfHops = std::numeric_limits<std::uint32_t>::max();
  std::vector<HostPath> row(topo.host_count());
  if (!host_usable(src_host)) return row;  // degraded fabric
  const auto ss = topo.host_uplink(src_host).node.index;
  const SolveFlags flags = solve_flags(policy);
  const auto s = relax(ss, flags.restrict_updown, flags.allow_itb);
  // Restricted fallback for VC-escape routes whose minimal path needs more
  // lanes than the ladder has; solved at most once per source.
  std::optional<Search> escape;
  for (std::uint16_t d = 0; d < row.size(); ++d) {
    if (d == src_host || !host_usable(d)) continue;
    // Destinations cut off by the mask keep an empty entry rather than
    // throwing in extract(); the NIC backstop (and the recovery engine's
    // unreachable accounting) handles them.
    const auto sd = topo.host_uplink(d).node.index;
    if (s.dist[sd][0].hops == kInfHops && s.dist[sd][1].hops == kInfHops)
      continue;
    row[d] = extract(s, src_host, d);
    if (policy == Policy::kVcEscape &&
        updown_segments(row[d].trunk_channels) > vc_lanes) {
      if (!escape) escape = relax(ss, /*restrict_updown=*/true,
                                  /*allow_itb=*/false);
      row[d] = extract(*escape, src_host, d);
    }
  }
  return row;
}

std::vector<std::size_t> Router::minimal_distances_from(
    std::uint16_t src_host) const {
  const auto& topo = updown_->topology();
  std::vector<std::size_t> row(topo.host_count(), 0);
  if (!host_usable(src_host)) return row;
  const auto s = relax(topo.host_uplink(src_host).node.index,
                       /*restrict_updown=*/false, /*allow_itb=*/false);
  for (std::uint16_t d = 0; d < row.size(); ++d) {
    if (d == src_host || !host_usable(d)) continue;
    const auto hops = s.dist[topo.host_uplink(d).node.index][0].hops;
    if (hops == std::numeric_limits<std::uint32_t>::max()) continue;
    row[d] = hops;
  }
  return row;
}

HostPath Router::updown_route(std::uint16_t src, std::uint16_t dst) const {
  return search(src, dst, /*restrict=*/true, /*allow_itb=*/false);
}

HostPath Router::minimal_route(std::uint16_t src, std::uint16_t dst) const {
  return search(src, dst, /*restrict=*/false, /*allow_itb=*/false);
}

HostPath Router::itb_route(std::uint16_t src, std::uint16_t dst) const {
  auto itb = search(src, dst, /*restrict=*/true, /*allow_itb=*/true);
  // The phase-reset search only legalises paths at switches that have
  // hosts, so it can come out longer than the unrestricted minimum when
  // some bare switch sits on every minimal path; in that case prefer
  // whichever legal route is shorter (ITB path can never be longer than
  // the plain up*/down* one because the latter is in its search space).
  return itb;
}

std::size_t Router::minimal_distance(std::uint16_t src, std::uint16_t dst) const {
  return minimal_route(src, dst).trunk_hops();
}

bool Router::is_valid_updown(const std::vector<topo::Channel>& trunks) const {
  bool went_down = false;
  for (const auto& c : trunks) {
    const auto from = updown_->topology().channel_source(c).node.index;
    const bool up = updown_->is_up_traversal(c.link, from);
    if (up && went_down) return false;
    if (!up) went_down = true;
  }
  return true;
}

std::size_t Router::updown_segments(
    const std::vector<topo::Channel>& trunks) const {
  std::size_t segments = 1;
  bool went_down = false;
  for (const auto& c : trunks) {
    const auto from = updown_->topology().channel_source(c).node.index;
    const bool up = updown_->is_up_traversal(c.link, from);
    if (up && went_down) {
      ++segments;
      went_down = false;
    }
    if (!up) went_down = true;
  }
  return segments;
}

std::string describe(const HostPath& path, const topo::Topology& topo) {
  std::string out = 'h' + std::to_string(path.src_host);
  std::size_t seg = 0;
  // Re-derive the switch sequence from the segments by walking the route
  // bytes from the source uplink switch.
  auto cur = topo.host_uplink(path.src_host);
  for (seg = 0; seg < path.segments.size(); ++seg) {
    if (seg > 0) {
      out += " =ITB(h" + std::to_string(path.in_transit_hosts[seg - 1]) + ")=>";
      cur = topo.host_uplink(path.in_transit_hosts[seg - 1]);
    }
    for (auto port : path.segments[seg]) {
      out += " -> s" + std::to_string(cur.node.index);
      auto peer = topo.peer(cur.node, port);
      if (!peer) {
        out += " -> <dangling p" + std::to_string(port) + ">";
        return out;
      }
      cur = *peer;
    }
  }
  out += " -> " + topo::to_string(cur.node);
  return out;
}

}  // namespace itb::routing
