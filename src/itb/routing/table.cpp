#include "itb/routing/table.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "itb/sim/parallel.hpp"

namespace itb::routing {

const char* to_string(Policy p) {
  switch (p) {
    case Policy::kUpDown:
      return "up*/down*";
    case Policy::kItb:
      return "UD+ITB";
    case Policy::kVcEscape:
      return "VC-escape";
  }
  return "?";
}

namespace {

/// Source hosts grouped for the per-switch solve: one group per switch
/// with usable hosts on it (switch order, hosts ascending), then one last
/// group of the hosts the router cannot use (unattached, or uplink down).
/// `want` (per host) filters; null takes every host.
std::vector<std::vector<std::uint16_t>> source_groups(
    const Router& router, const std::vector<char>* want) {
  const auto& topo = router.topology();
  std::vector<std::vector<std::uint16_t>> groups(topo.switch_count() + 1);
  for (std::uint16_t h = 0; h < topo.host_count(); ++h) {
    if (want && !(*want)[h]) continue;
    if (router.host_usable(h))
      groups[topo.host_uplink(h).node.index].push_back(h);
    else
      groups.back().push_back(h);
  }
  std::erase_if(groups, [](const auto& g) { return g.empty(); });
  return groups;
}

/// Unrestricted trunk-hop distance from a group's switch to every host
/// (one BFS for the whole group): 0 for hosts the router cannot use or
/// reach, and all 0 for the group of unusable sources.
std::vector<std::size_t> minimal_hops(const Router& router,
                                      const std::vector<std::uint16_t>& group) {
  const auto& topo = router.topology();
  std::vector<std::size_t> out(topo.host_count(), 0);
  if (!router.host_usable(group.front())) return out;
  const auto hops =
      router.min_hops_from_switch(topo.host_uplink(group.front()).node.index);
  for (std::uint16_t d = 0; d < out.size(); ++d) {
    if (!router.host_usable(d)) continue;
    const auto h = hops[topo.host_uplink(d).node.index];
    if (h != std::numeric_limits<std::uint32_t>::max()) out[d] = h;
  }
  return out;
}

/// Run fn(group) for every group across `jobs` threads, thread t taking
/// groups t, t + jobs, t + 2 jobs, ... A fixed, interleaved share rather
/// than first-come claiming: each worker's malloc arena then holds the same
/// share of the routes on every solve, so rebuilding a table (a new cluster
/// per repetition, a recovery patch) reuses the memory the last one freed.
/// With claiming, the shares shifted with thread start-up timing and each
/// arena's footprint ratcheted up to its largest share: a 4-job ft16
/// cluster rebuilt four times grew from 295 to 302-305 MB resident.
template <typename Fn>
void for_each_group(unsigned jobs,
                    const std::vector<std::vector<std::uint16_t>>& groups,
                    Fn&& fn) {
  const sim::ParallelRunner runner(jobs);
  const std::size_t workers =
      std::min<std::size_t>(runner.jobs(), groups.size());
  runner.run_indexed(workers, [&](std::size_t t) {
    for (std::size_t g = t; g < groups.size(); g += workers) fn(groups[g]);
  });
}

}  // namespace

RouteTable::RouteTable(const Router& router, Policy policy, unsigned jobs,
                       unsigned vc_lanes)
    : policy_(policy),
      hosts_(router.topology().host_count()),
      vc_lanes_(vc_lanes) {
  routes_.resize(hosts_ * hosts_);
  const auto groups = source_groups(router, nullptr);
  for_each_group(jobs, groups,
                 [&](const auto& group) { solve_group(router, group); });
}

void RouteTable::solve_group(const Router& router,
                             const std::vector<std::uint16_t>& group) {
  // Unattached hosts appear in degraded topologies (fault windows that cut
  // a host off); their rows — like the diagonal — are empty HostPaths.
  if (router.host_usable(group.front())) {
    router.solve_rows(group, policy_, vc_lanes_, routes_.data());
    return;
  }
  for (const auto s : group)
    std::fill_n(routes_.begin() + static_cast<std::ptrdiff_t>(s * hosts_),
                hosts_, HostPath{});
}

std::size_t RouteTable::index(std::uint16_t src, std::uint16_t dst) const {
  if (src >= hosts_ || dst >= hosts_ || src == dst)
    throw std::out_of_range("bad host pair");
  return static_cast<std::size_t>(src) * hosts_ + dst;
}

const HostPath& RouteTable::route(std::uint16_t src, std::uint16_t dst) const {
  return routes_[index(src, dst)];
}

double RouteTable::average_trunk_hops() const {
  std::size_t total = 0, pairs = 0;
  for (std::uint16_t s = 0; s < hosts_; ++s)
    for (std::uint16_t d = 0; d < hosts_; ++d) {
      if (s == d) continue;
      const HostPath& r = route(s, d);
      if (r.segments.empty()) continue;  // unreachable in a degraded table
      total += r.trunk_hops();
      ++pairs;
    }
  return pairs ? static_cast<double>(total) / static_cast<double>(pairs) : 0.0;
}

double RouteTable::minimal_fraction(const Router& router, unsigned jobs) const {
  std::vector<std::size_t> minimal_per_src(hosts_, 0);
  std::vector<std::size_t> pairs_per_src(hosts_, 0);
  const auto groups = source_groups(router, nullptr);
  for_each_group(jobs, groups, [&](const auto& group) {
    const auto dist = minimal_hops(router, group);
    for (const std::size_t s : group)
      for (std::uint16_t d = 0; d < hosts_; ++d) {
        if (s == d) continue;
        const HostPath& r = routes_[s * hosts_ + d];
        if (r.segments.empty()) continue;  // unreachable in a degraded table
        if (r.trunk_hops() == dist[d]) ++minimal_per_src[s];
        ++pairs_per_src[s];
      }
  });
  std::size_t minimal = 0, pairs = 0;
  for (std::size_t s = 0; s < hosts_; ++s) {
    minimal += minimal_per_src[s];
    pairs += pairs_per_src[s];
  }
  return pairs ? static_cast<double>(minimal) / static_cast<double>(pairs) : 1.0;
}

double RouteTable::average_itbs() const {
  std::size_t total = 0, pairs = 0;
  for (std::uint16_t s = 0; s < hosts_; ++s)
    for (std::uint16_t d = 0; d < hosts_; ++d) {
      if (s == d) continue;
      const HostPath& r = route(s, d);
      if (r.segments.empty()) continue;  // unreachable in a degraded table
      total += r.itb_count();
      ++pairs;
    }
  return pairs ? static_cast<double>(total) / static_cast<double>(pairs) : 0.0;
}

std::vector<std::uint32_t> RouteTable::channel_usage(
    const topo::Topology& topo) const {
  std::vector<std::uint32_t> usage(topo.link_count() * 2, 0);
  for (std::uint16_t s = 0; s < hosts_; ++s)
    for (std::uint16_t d = 0; d < hosts_; ++d) {
      if (s == d) continue;
      for (const auto& c : route(s, d).trunk_channels)
        ++usage[2 * c.link + (c.forward ? 0 : 1)];
    }
  return usage;
}

void RouteTable::index_group(const Router& router,
                             const std::vector<std::uint16_t>& group) {
  const auto& topo = router.topology();
  const auto uplink = [&](std::uint16_t h) {
    return topo.link_at(topo::host_id(h), 0);
  };
  // A VC row longer than its minimal distance is an escape fallback; its
  // source carries the conservative "re-solve on any delta" mark (see the
  // vc_fallback_ comment in the header). One BFS serves the whole group.
  const bool vc = policy_ == Policy::kVcEscape;
  const auto dist =
      vc ? minimal_hops(router, group) : std::vector<std::size_t>{};
  for (const auto src : group) {
    auto& lu = links_used_[src];
    auto& iu = itb_switch_used_[src];
    std::fill(lu.begin(), lu.end(), 0);
    std::fill(iu.begin(), iu.end(), 0);
    vc_fallback_[src] = 0;
    bool any = false;
    for (std::uint16_t d = 0; d < hosts_; ++d) {
      if (d == src) continue;
      const HostPath& r = routes_[static_cast<std::size_t>(src) * hosts_ + d];
      if (r.segments.empty()) continue;
      any = true;
      if (auto l = uplink(d)) lu[*l] = 1;
      for (const auto& c : r.trunk_channels) lu[c.link] = 1;
      for (auto h : r.in_transit_hosts) {
        if (auto l = uplink(h)) lu[*l] = 1;
        iu[topo.host_uplink(h).node.index] = 1;
      }
      if (vc && r.trunk_hops() > dist[d]) vc_fallback_[src] = 1;
    }
    // The source's own uplink carries every nonempty row.
    if (any)
      if (auto l = uplink(src)) lu[*l] = 1;
  }
}

std::uint64_t RouteTable::intern_state(const Router& router) {
  const auto& topo = router.topology();
  const auto& ud = router.updown();
  std::vector<std::uint32_t> encoded(topo.link_count());
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    if (!ud.link_usable(l))
      encoded[l] = 0xFFFFFFFFu;
    else if (const auto up = ud.up_end(l))
      encoded[l] = *up;
    else
      encoded[l] = 0xFFFFFFFEu;  // usable host link (never oriented)
  }
  for (const auto& gs : gen_states_)
    if (gs.encoded == encoded) return gs.id;
  // Bounded pool: evicting an old state only loses the shortcut for
  // sources still stamped with it (ids are never reused), never soundness.
  if (gen_states_.size() >= 64) gen_states_.erase(gen_states_.begin());
  gen_states_.push_back(GraphState{++next_gen_, std::move(encoded)});
  return gen_states_.back().id;
}

void RouteTable::enable_patching(const Router& router) {
  const auto& topo = router.topology();
  if (topo.host_count() != hosts_)
    throw std::invalid_argument("patching needs stable topology coordinates");
  links_used_.assign(hosts_, std::vector<char>(topo.link_count(), 0));
  itb_switch_used_.assign(hosts_, std::vector<char>(topo.switch_count(), 0));
  vc_fallback_.assign(hosts_, 0);
  for (const auto& group : source_groups(router, nullptr))
    index_group(router, group);
  solved_gen_.assign(hosts_, intern_state(router));
}

PatchStats RouteTable::patch(const Router& router, const LinkDelta& delta,
                             unsigned jobs) {
  const auto& topo = router.topology();
  if (topo.host_count() != hosts_)
    throw std::invalid_argument("patching needs stable topology coordinates");
  PatchStats st;
  st.sources_total = hosts_;

  const bool indexed = links_used_.size() == hosts_ &&
                       (hosts_ == 0 ||
                        links_used_[0].size() == topo.link_count());
  std::vector<char> invalid(hosts_, 0);
  const std::uint64_t target_gen = indexed ? intern_state(router) : 0;

  if (delta.force_full || !indexed) {
    std::fill(invalid.begin(), invalid.end(), 1);
    st.full = true;
  } else {
    // Classify the delta. Trunk additions (including the "added" half of an
    // orientation flip) become attraction tests; host-link churn marks the
    // switch's ITB candidate list dirty, and an added host link additionally
    // makes its switch a (potential) new phase-reset point.
    struct Attract {
      std::vector<std::uint32_t> da, db;  // db empty = reuse da (ITB point)
      std::uint32_t extra;                // hop cost of crossing the link
    };
    std::vector<Attract> attracts;
    std::vector<char> itb_dirty(topo.switch_count(), 0);
    bool any_itb_dirty = false;

    const auto classify = [&](topo::LinkId lid, bool added) {
      const auto& l = topo.link(lid);
      const bool a_sw = l.a.node.kind == topo::NodeKind::kSwitch;
      const bool b_sw = l.b.node.kind == topo::NodeKind::kSwitch;
      if (a_sw && b_sw) {
        if (added && !(l.a.node == l.b.node))
          attracts.push_back(
              Attract{router.min_hops_from_switch(l.a.node.index),
                      router.min_hops_from_switch(l.b.node.index), 1});
        return;
      }
      const auto sw = a_sw ? l.a.node.index : l.b.node.index;
      const auto host = a_sw ? l.b.node.index : l.a.node.index;
      itb_dirty[sw] = 1;
      any_itb_dirty = true;
      if (added) {
        invalid[host] = 1;  // the restored host gains a whole row
        attracts.push_back(
            Attract{router.min_hops_from_switch(sw), {}, 0});
      }
    };
    for (auto l : delta.removed) classify(l, /*added=*/false);
    for (auto l : delta.added) classify(l, /*added=*/true);

    // Generation shortcut: a source whose last re-solve ran against this
    // exact graph state needs nothing — its row IS the solve's output
    // for the patch target, whatever the delta looks like.
    for (std::uint16_t s = 0; s < hosts_; ++s)
      if (solved_gen_[s] == target_gen) invalid[s] = 0;

    // VC-escape fallback rows depend on the whole orientation, not just the
    // links they traverse — conservatively re-solve their sources on any
    // non-empty delta (unless the generation shortcut already proved them).
    if (policy_ == Policy::kVcEscape &&
        (!delta.removed.empty() || !delta.added.empty()))
      for (std::uint16_t s = 0; s < hosts_; ++s)
        if (vc_fallback_[s] && solved_gen_[s] != target_gen) invalid[s] = 1;

    // (a) a stored route traverses a removed link; (b) an ITB candidate
    // list the source depends on changed.
    for (std::uint16_t s = 0; s < hosts_; ++s) {
      if (invalid[s] || solved_gen_[s] == target_gen) continue;
      for (auto l : delta.removed)
        if (links_used_[s][l]) {
          invalid[s] = 1;
          break;
        }
      if (invalid[s] || !any_itb_dirty) continue;
      const auto& iu = itb_switch_used_[s];
      for (std::uint16_t sw = 0; sw < itb_dirty.size(); ++sw)
        if (itb_dirty[sw] && iu[sw]) {
          invalid[s] = 1;
          break;
        }
    }

    // (c) an added link (or new reset point) could attract the source: the
    // unrestricted hop distance through it lower-bounds any restricted
    // route, and hops are the primary lex key — so bound > stored hops
    // proves the stored row survives; bound <= means a shorter OR
    // equal-cost canonical winner may exist, re-solve. Empty entries toward
    // usable destinations are conservatively re-solved too (the addition
    // may have connected them).
    if (!attracts.empty()) {
      constexpr std::uint64_t kInf = std::numeric_limits<std::uint32_t>::max();
      for (std::uint16_t s = 0; s < hosts_; ++s) {
        if (invalid[s] || solved_gen_[s] == target_gen ||
            !router.host_usable(s))
          continue;
        const auto ss = topo.host_uplink(s).node.index;
        for (std::uint16_t d = 0; d < hosts_ && !invalid[s]; ++d) {
          if (d == s || !router.host_usable(d)) continue;
          const HostPath& r =
              routes_[static_cast<std::size_t>(s) * hosts_ + d];
          if (r.segments.empty()) {
            invalid[s] = 1;
            break;
          }
          const auto sd = topo.host_uplink(d).node.index;
          const std::uint64_t stored = r.trunk_hops();
          for (const auto& a : attracts) {
            const auto& db = a.db.empty() ? a.da : a.db;
            const std::uint64_t fwd =
                std::min(kInf, static_cast<std::uint64_t>(a.da[ss]) +
                                   a.extra + db[sd]);
            const std::uint64_t rev =
                std::min(kInf, static_cast<std::uint64_t>(db[ss]) + a.extra +
                                   a.da[sd]);
            if (std::min(fwd, rev) <= stored) {
              invalid[s] = 1;
              break;
            }
          }
        }
      }
    }
  }

  st.sources_resolved = static_cast<std::size_t>(
      std::count(invalid.begin(), invalid.end(), 1));
  // Invalid sources re-solve per switch, like the constructor: each task
  // writes only its own group's rows and index entries.
  const auto groups = source_groups(router, &invalid);
  for_each_group(jobs, groups, [&](const auto& group) {
    solve_group(router, group);
    if (indexed) {
      index_group(router, group);
      for (const auto s : group) solved_gen_[s] = target_gen;
    }
  });
  return st;
}

void RouteTable::dump(std::ostream& os) const {
  os << "policy=" << to_string(policy_);
  // Lane count is part of a VC table's identity (it decides which pairs
  // fall back); keep UD/ITB headers byte-identical to the pre-engine dumps.
  if (policy_ == Policy::kVcEscape) os << " lanes=" << vc_lanes_;
  os << " hosts=" << hosts_ << "\n";
  for (std::uint16_t s = 0; s < hosts_; ++s)
    for (std::uint16_t d = 0; d < hosts_; ++d) {
      if (s == d) continue;
      const HostPath& r = routes_[static_cast<std::size_t>(s) * hosts_ + d];
      os << s << ">" << d << " seg";
      for (const auto& seg : r.segments) {
        os << ":";
        for (auto byte : seg) os << " " << static_cast<unsigned>(byte);
      }
      os << " itb";
      for (auto h : r.in_transit_hosts) os << " " << h;
      os << " ch";
      for (const auto& c : r.trunk_channels)
        os << " " << c.link << (c.forward ? "+" : "-");
      os << "\n";
    }
}

}  // namespace itb::routing
