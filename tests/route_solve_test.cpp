// All-pairs route solve: one search per source switch plus exact-size
// extraction. These tests pin the solve's output to committed digests and
// bound its heap traffic; the jobs-invariance and per-pair equivalence
// checks live with the other ParallelSolve tests in scale_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "itb/routing/table.hpp"
#include "itb/sim/alloc_hook.hpp"
#include "itb/sim/rng.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string dump_of(const routing::RouteTable& t) {
  std::ostringstream os;
  t.dump(os);
  return os.str();
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// `name 0x<digest>` lines; '#' starts a comment line.
std::map<std::string, std::string> committed_digests() {
  std::ifstream in(ITB_GOLDEN_DIR "/route_tables.digests");
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, digest;
    if (fields >> name >> digest) out[name] = digest;
  }
  return out;
}

std::string table_digest(const topo::Topology& t, routing::Policy policy,
                         routing::ItbHostSelection selection =
                             routing::ItbHostSelection::kLowestIndex) {
  routing::UpDown ud(t);
  routing::Router router(ud, selection);
  return hex(fnv1a(dump_of(routing::RouteTable(router, policy, 1, 2))));
}

// A 4x8 Clos with one leaf-spine trunk and one host uplink masked down,
// patched from the all-up table.
std::string masked_clos_digest() {
  const auto t = topo::make_clos(4, 8, 4);
  std::vector<char> up(t.link_count(), 1);
  routing::UpDown base_ud(t, 0, up);
  routing::Router base(base_ud);
  routing::RouteTable table(base, routing::Policy::kItb, 1);
  table.enable_patching(base);

  const auto host_link = *t.link_at(topo::host_id(5), 0);
  topo::LinkId trunk = 0;
  while (t.link(trunk).a.node.kind != topo::NodeKind::kSwitch ||
         t.link(trunk).b.node.kind != topo::NodeKind::kSwitch)
    ++trunk;
  up[host_link] = 0;
  up[trunk] = 0;
  routing::UpDown masked_ud(t, 0, up);
  routing::Router masked(masked_ud);
  routing::LinkDelta delta;
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    const bool was = base_ud.link_usable(l), now = masked_ud.link_usable(l);
    if (was && !now) delta.removed.push_back(l);
    if (was && now && base_ud.up_end(l) != masked_ud.up_end(l)) {
      delta.removed.push_back(l);
      delta.added.push_back(l);
    }
  }
  table.patch(masked, delta, 1);
  return hex(fnv1a(dump_of(table)));
}

// The digests in tests/golden/route_tables.digests were computed from the
// per-source solve this one replaced, so they hold the solve to its old
// output byte for byte. A deliberate routing change (the balanced
// tie-break in Router::relax, for one) is expected to re-commit them.
TEST(RouteTableGolden, DumpsMatchCommittedDigests) {
  using routing::Policy;
  sim::Rng rng(2001);  // scale_topology's cow64
  topo::IrregularSpec spec;
  spec.switches = 64;
  spec.hosts_per_switch = 4;
  const auto cow64 = topo::make_random_irregular(spec, rng);
  const auto ft8 = topo::make_fat_tree(8);

  const std::map<std::string, std::function<std::string()>> cases = {
      {"ft8_updown", [&] { return table_digest(ft8, Policy::kUpDown); }},
      {"ft8_itb", [&] { return table_digest(ft8, Policy::kItb); }},
      {"ft8_vc2", [&] { return table_digest(ft8, Policy::kVcEscape); }},
      {"cow64_itb_lowest", [&] { return table_digest(cow64, Policy::kItb); }},
      {"cow64_itb_spread",
       [&] {
         return table_digest(cow64, Policy::kItb,
                             routing::ItbHostSelection::kSpread);
       }},
      {"fig1_vc2",
       [] {
         return table_digest(topo::make_fig1_network(), Policy::kVcEscape);
       }},
      {"clos4x8_masked_patched", masked_clos_digest},
  };
  const auto golden = committed_digests();
  for (const auto& [name, digest] : cases) {
    const auto it = golden.find(name);
    const std::string want = it == golden.end() ? "<missing>" : it->second;
    EXPECT_EQ(digest(), want) << name;
  }
}

// Every heap allocation of a solve is a stored route's own vector, bar a
// few per source switch (search buffers, destination table, source groups).
TEST(RouteSolveAllocations, OnlyTheRoutesOwnVectorsPlusPerSwitchScratch) {
  if (!sim::alloc_counting_available())
    GTEST_SKIP() << "allocation counting unavailable in this build";
  const auto t = topo::make_fat_tree(8);
  routing::UpDown ud(t);
  routing::Router router(ud);
  for (const auto policy :
       {routing::Policy::kItb, routing::Policy::kVcEscape}) {
    const auto before = sim::total_allocations();
    const routing::RouteTable table(router, policy, 1, 2);
    const auto allocs = sim::total_allocations() - before;

    std::uint64_t exact = 0;
    for (std::uint16_t s = 0; s < t.host_count(); ++s)
      for (std::uint16_t d = 0; d < t.host_count(); ++d) {
        if (s == d) continue;
        const auto& r = table.route(s, d);
        exact += 1 + r.segments.size() + !r.trunk_channels.empty() +
                 !r.in_transit_hosts.empty();
      }
    EXPECT_LE(allocs, exact + 8 * t.switch_count())
        << to_string(policy) << ": " << allocs << " allocations for "
        << exact << " route vectors";
  }
}

}  // namespace
