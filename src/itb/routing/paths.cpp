#include "itb/routing/paths.hpp"

#include <algorithm>
#include <limits>
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

void Router::relax(std::uint16_t src_switch, bool restrict_updown,
                   bool allow_itb, Search& out, Scratch& scratch) const {
  const auto n = updown_->topology().switch_count();

  out.src_switch = src_switch;
  // dist[sw][phase]; with restrictions off everything stays in phase 0.
  // Phase 0: no down traversal yet (up and down both legal). Phase 1: a
  // down traversal happened (only down legal until an ITB resets it).
  out.dist.assign(n, {});
  out.pred.assign(n, {});
  auto& dist = out.dist;
  auto& pred = out.pred;

  // Canonical pop order: (cost, switch, phase). With cost-only ordering the
  // winner among equal-cost states depends on heap internals (push order);
  // breaking ties on state id makes every pred assignment a pure function
  // of the search graph, which the incremental patcher relies on — a source
  // whose stored routes avoid all changed links provably re-solves to the
  // byte-identical row, so it can be skipped.
  auto cmp = [](const QEntry& a, const QEntry& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    if (a.sw != b.sw) return a.sw > b.sw;
    return a.phase > b.phase;
  };
  auto& heap = scratch.heap;
  heap.clear();
  const auto push = [&](SearchCost c, std::uint16_t sw, std::uint8_t phase) {
    heap.push_back(QEntry{c, sw, phase});
    std::push_heap(heap.begin(), heap.end(), cmp);
  };

  dist[src_switch][0] = SearchCost{0, 0};
  pred[src_switch][0] = SearchPred{0xFFFF, 0, -2};
  push(SearchCost{0, 0}, src_switch, 0);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    const QEntry st = heap.back();
    heap.pop_back();
    const SearchCost cost = st.cost;
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
        push(next, h.to_switch, next_phase);
      }
    }

    // ITB reset: eject at a host on this switch, re-inject in phase 0.
    if (allow_itb && restrict_updown && st.phase == 1 &&
        !itb_hosts_[st.sw].empty()) {
      const SearchCost next{cost.hops, cost.itbs + 1};
      if (next < dist[st.sw][0]) {
        dist[st.sw][0] = next;
        pred[st.sw][0] = SearchPred{st.sw, 1, -1};
        push(next, st.sw, 0);
      }
    }
  }
}

void Router::walk(const Search& s, std::uint16_t dst_switch,
                  Scratch& scratch) const {
  const auto ss = s.src_switch;
  const auto& dist = s.dist;
  const auto& pred = s.pred;
  if (!s.reaches(dst_switch))
    throw std::logic_error("no route between hosts (disconnected?)");
  std::uint16_t sw = dst_switch;
  std::uint8_t phase = dist[sw][0] <= dist[sw][1] ? 0 : 1;
  auto& steps = scratch.steps;
  steps.clear();
  while (!(sw == ss && phase == 0 && pred[sw][phase].hop == -2)) {
    const SearchPred& p = pred[sw][phase];
    if (p.hop == -2) throw std::logic_error("route reconstruction failed");
    steps.push_back(Step{p.sw, p.hop});
    sw = p.sw;
    phase = p.phase;
  }
}

HostPath Router::build(const Scratch& scratch, std::uint16_t src_host,
                       std::uint16_t dst_host, std::uint8_t dst_port) const {
  const auto& topo = updown_->topology();
  const auto& steps = scratch.steps;
  const auto resets = static_cast<std::size_t>(std::count_if(
      steps.begin(), steps.end(), [](const Step& st) { return st.hop == -1; }));

  // Size every vector exactly before filling it: a segment holds its trunk
  // hops plus the port that ends it (ITB host or destination).
  HostPath path;
  path.src_host = src_host;
  path.dst_host = dst_host;
  path.segments.resize(resets + 1);
  path.in_transit_hosts.reserve(resets);
  path.trunk_channels.reserve(steps.size() - resets);
  std::size_t seg = 0, len = 1;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it, ++len)
    if (it->hop == -1) {
      path.segments[seg++].reserve(len);
      len = 0;
    }
  path.segments[seg].reserve(len);

  seg = 0;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    if (it->hop == -1) {
      // Ejection: current segment ends with the port to the in-transit
      // host; the next segment resumes at the same switch.
      const ItbCandidate& itb = pick_itb(it->sw, src_host, dst_host);
      path.segments[seg++].push_back(itb.port);
      path.in_transit_hosts.push_back(itb.host);
      continue;
    }
    const Hop& h = adj_[it->sw][static_cast<std::size_t>(it->hop)];
    path.segments[seg].push_back(h.out_port);
    const auto& l = topo.link(h.link);
    const bool fwd =
        l.a.node == topo::switch_id(it->sw) && l.a.port == h.out_port;
    path.trunk_channels.push_back(topo::Channel{h.link, fwd});
  }
  path.segments[seg].push_back(dst_port);
  return path;
}

HostPath Router::search(std::uint16_t src_host, std::uint16_t dst_host,
                        bool restrict_updown, bool allow_itb) const {
  const auto& topo = updown_->topology();
  Search s;
  Scratch scratch;
  const auto dst_up = topo.host_uplink(dst_host);
  relax(topo.host_uplink(src_host).node.index, restrict_updown, allow_itb, s,
        scratch);
  walk(s, dst_up.node.index, scratch);
  return build(scratch, src_host, dst_host, dst_up.port);
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
      // restricted routes are solved lazily per source switch when the
      // ladder cannot absorb a minimal path.
      return {/*restrict_updown=*/false, /*allow_itb=*/false};
  }
  return {/*restrict_updown=*/true, /*allow_itb=*/false};  // unreachable
}

void Router::solve_rows(const std::vector<std::uint16_t>& sources,
                        Policy policy, unsigned vc_lanes,
                        HostPath* table) const {
  if (sources.empty()) return;
  const auto& topo = updown_->topology();
  const std::size_t hosts = topo.host_count();
  const auto ss = topo.host_uplink(sources.front()).node.index;
  const SolveFlags flags = solve_flags(policy);
  Scratch scratch;
  Search primary;
  relax(ss, flags.restrict_updown, flags.allow_itb, primary, scratch);
  // Restricted fallback for VC-escape routes whose minimal path needs more
  // lanes than the ladder has; solved at most once per switch.
  Search escape;
  bool have_escape = false;
  // Per destination: its uplink when the search reaches it, else nullopt.
  // Destinations cut off by the mask keep an empty entry rather than
  // throwing in walk(); the NIC backstop (and the recovery engine's
  // unreachable accounting) handles them.
  std::vector<std::optional<topo::Endpoint>> sinks(hosts);
  for (std::uint16_t d = 0; d < hosts; ++d)
    if (host_usable(d) && primary.reaches(topo.host_uplink(d).node.index))
      sinks[d] = topo.host_uplink(d);

  for (const auto src : sources) {
    HostPath* row = table + static_cast<std::size_t>(src) * hosts;
    for (std::uint16_t d = 0; d < hosts; ++d) {
      if (d == src || !sinks[d]) {
        row[d] = HostPath{};
        continue;
      }
      const auto sd = sinks[d]->node.index;
      walk(primary, sd, scratch);
      row[d] = build(scratch, src, d, sinks[d]->port);
      if (policy == Policy::kVcEscape &&
          updown_segments(row[d].trunk_channels) > vc_lanes) {
        if (!have_escape) {
          relax(ss, /*restrict_updown=*/true, /*allow_itb=*/false, escape,
                scratch);
          have_escape = true;
        }
        walk(escape, sd, scratch);
        row[d] = build(scratch, src, d, sinks[d]->port);
      }
    }
  }
}

HostPath Router::updown_route(std::uint16_t src, std::uint16_t dst) const {
  return search(src, dst, /*restrict=*/true, /*allow_itb=*/false);
}

HostPath Router::minimal_route(std::uint16_t src, std::uint16_t dst) const {
  return search(src, dst, /*restrict=*/false, /*allow_itb=*/false);
}

HostPath Router::itb_route(std::uint16_t src, std::uint16_t dst) const {
  // Never longer than the plain up*/down* route: that route is in the
  // phase-reset search's space.
  return search(src, dst, /*restrict=*/true, /*allow_itb=*/true);
}

std::size_t Router::minimal_distance(std::uint16_t src, std::uint16_t dst) const {
  return minimal_route(src, dst).trunk_hops();
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
