// Integration tests over the Cluster facade and the paper's experiment
// presets (Fig. 6 testbed with the Fig. 7/8 measurement routes), plus the
// ping-pong and load harnesses.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "itb/core/experiments.hpp"
#include "itb/sim/parallel.hpp"
#include "itb/workload/load.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;
using packet::Bytes;

TEST(Cluster, BuildsWithMapperAndDeliversTraffic) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.policy = routing::Policy::kItb;
  core::Cluster c(std::move(cfg));
  EXPECT_EQ(c.host_count(), 8u);
  EXPECT_NE(c.route_table(), nullptr);
  EXPECT_NE(c.mapper_report(), nullptr);
  EXPECT_TRUE(c.routes_deadlock_free());

  int delivered = 0;
  for (std::uint16_t h = 0; h < 8; ++h)
    c.port(h).set_receive_handler(
        [&](sim::Time, std::uint16_t, Bytes) { ++delivered; });
  for (std::uint16_t h = 0; h < 8; ++h)
    c.port(h).send(static_cast<std::uint16_t>((h + 3) % 8), Bytes(777, 1));
  c.run();
  EXPECT_EQ(delivered, 8);
}

TEST(Cluster, ManualRoutesSkipMapper) {
  auto c = core::make_fig7_cluster(true);
  EXPECT_EQ(c->route_table(), nullptr);
  EXPECT_EQ(c->mapper_report(), nullptr);
}

TEST(Cluster, InvalidTopologyThrows) {
  core::ClusterConfig cfg;
  cfg.topology.add_switch(4);
  cfg.topology.add_host();  // unattached
  EXPECT_THROW(core::Cluster c(std::move(cfg)), std::logic_error);
}

TEST(Cluster, Ft8RegistryKeysAreUniqueAndReadTheirOwnNic) {
  // Every layer registers through the registry's hashed index; on a
  // 128-host fabric each per-host key must resolve to its own host.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fat_tree(8);
  cfg.policy = routing::Policy::kItb;
  core::Cluster c(std::move(cfg));
  const auto& reg = c.telemetry().registry();
  const auto n = static_cast<std::uint16_t>(c.host_count());
  ASSERT_EQ(n, 128u);

  std::set<std::tuple<std::string, std::string, int, int>> keys;
  for (const auto& s : reg.snapshot())
    keys.emplace(s.component, s.name, s.labels.host, s.labels.channel);
  EXPECT_EQ(keys.size(), reg.size());

  // Uneven load so that no two NICs' counters coincide by accident.
  int delivered = 0, sent = 0;
  for (std::uint16_t h = 0; h < n; ++h)
    c.port(h).set_receive_handler(
        [&](sim::Time, std::uint16_t, Bytes) { ++delivered; });
  for (std::uint16_t h = 0; h < n; ++h)
    for (int m = 0; m < h % 5; ++m, ++sent)
      c.port(h).send(static_cast<std::uint16_t>((h + 1 + m * 29) % n),
                     Bytes(256, 1));
  c.run();
  EXPECT_EQ(delivered, sent);
  for (std::uint16_t h = 0; h < n; ++h) {
    const double want = static_cast<double>(c.nic(h).stats().sent);
    EXPECT_EQ(reg.value("nic", "sent", {.host = h, .channel = -1}), want)
        << "host " << h;
  }
}

TEST(PingPong, ProducesPositiveLatency) {
  auto c = core::make_fig7_cluster(true);
  auto row = workload::run_pingpong(c->queue(), c->port(core::kHost1),
                                    c->port(core::kHost2), 64, 10);
  EXPECT_GT(row.half_rtt_ns, 0);
  EXPECT_GE(row.max_ns, row.min_ns);
  // Unloaded deterministic simulation: iterations are identical.
  EXPECT_DOUBLE_EQ(row.stddev_ns, 0.0);
}

TEST(PingPong, LatencyMonotonicInSize) {
  auto c = core::make_fig7_cluster(true);
  workload::AllsizeConfig cfg;
  cfg.iterations = 3;
  cfg.sizes = {8, 256, 4096, 16384};
  auto rows = workload::run_allsize(c->queue(), c->port(core::kHost1),
                                    c->port(core::kHost2), cfg);
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 1; i < rows.size(); ++i)
    EXPECT_GT(rows[i].half_rtt_ns, rows[i - 1].half_rtt_ns);
}

TEST(Fig7, ModifiedMcpOverheadSmallAndPositive) {
  // The headline Fig. 7 result: the ITB-capable MCP adds a small constant
  // to the receive path of every packet — the paper measured ~125 ns
  // average and < 300 ns.
  auto orig = core::make_fig7_cluster(false);
  auto mod = core::make_fig7_cluster(true);
  // Single-packet message sizes (multi-fragment messages pay the
  // per-packet overhead once per fragment).
  for (std::size_t size : {16u, 1024u, 4000u}) {
    auto a = workload::run_pingpong(orig->queue(), orig->port(core::kHost1),
                                    orig->port(core::kHost2), size, 5);
    auto b = workload::run_pingpong(mod->queue(), mod->port(core::kHost1),
                                    mod->port(core::kHost2), size, 5);
    const double overhead = b.half_rtt_ns - a.half_rtt_ns;
    EXPECT_GT(overhead, 0) << size;
    EXPECT_LT(overhead, 300) << size;
  }
}

TEST(Fig8, BothPathsCrossFiveSwitchesAndDeliver) {
  for (bool itb : {false, true}) {
    auto c = core::make_fig8_cluster(itb);
    Bytes got;
    c->port(core::kHost2)
        .set_receive_handler(
            [&](sim::Time, std::uint16_t, Bytes m) { got = std::move(m); });
    Bytes msg(333, 5);
    ASSERT_TRUE(c->port(core::kHost1).send(core::kHost2, msg));
    c->run();
    EXPECT_EQ(got, msg) << (itb ? "ITB" : "UD");
    if (itb) {
      EXPECT_GE(c->nic(core::kInTransit).stats().itb_forwarded, 1u);
    }
  }
}

TEST(Fig8, ItbOverheadAboutOneMicrosecondAndFlat) {
  // The headline Fig. 8 result: each ITB costs ~1.3 us, roughly flat in
  // message size. Methodology as in the paper: overhead = 2 * (half-RTT
  // with ITB - half-RTT without), since only the forward leg differs.
  std::vector<double> overheads;
  for (std::size_t size : {16u, 512u, 4096u}) {
    auto ud = core::make_fig8_cluster(false);
    auto itb = core::make_fig8_cluster(true);
    auto a = workload::run_pingpong(ud->queue(), ud->port(core::kHost1),
                                    ud->port(core::kHost2), size, 5);
    auto b = workload::run_pingpong(itb->queue(), itb->port(core::kHost1),
                                    itb->port(core::kHost2), size, 5);
    overheads.push_back(2 * (b.half_rtt_ns - a.half_rtt_ns));
  }
  for (double o : overheads) {
    EXPECT_GT(o, 700.0);   // the prior-work estimate was ~0.5 us; measured
    EXPECT_LT(o, 2000.0);  // ~1.3 us on real hardware
  }
  // Flatness (virtual cut-through): sizes differ by 256x, overhead within
  // a few hundred ns.
  const auto [lo, hi] = std::minmax_element(overheads.begin(), overheads.end());
  EXPECT_LT(*hi - *lo, 500.0);
}

TEST(Load, UniformTrafficDeliversUnderLightLoad) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.policy = routing::Policy::kItb;
  core::Cluster c(std::move(cfg));
  workload::LoadConfig lc;
  lc.message_bytes = 256;
  lc.rate_msgs_per_s = 2000;  // light
  lc.warmup = 1 * sim::kMs;
  lc.measure = 5 * sim::kMs;
  auto result = workload::run_load(c.queue(), c.ports(), lc);
  EXPECT_GT(result.messages_delivered, 20u);
  EXPECT_GT(result.latency_mean_ns, 0);
  EXPECT_EQ(result.retransmissions, 0u);
}

TEST(Load, SaturationCapsAcceptedThroughput) {
  // Offered load far beyond capacity: accepted throughput must saturate
  // (send-token refusals appear) instead of diverging.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_linear(2, 1);
  core::Cluster c(std::move(cfg));
  workload::LoadConfig lc;
  lc.message_bytes = 2048;
  lc.rate_msgs_per_s = 5e5;  // absurd
  lc.warmup = 500 * sim::kUs;
  lc.measure = 3 * sim::kMs;
  auto result = workload::run_load(c.queue(), c.ports(), lc);
  EXPECT_GT(result.sends_refused, 0u);
  // Wire limit is 160 MB/s per direction; two hosts exchanging traffic
  // full-duplex can accept at most ~320 MB/s in aggregate.
  EXPECT_LT(result.accepted_bytes_per_s, 330e6);
}

TEST(Load, DeterministicForSeed) {
  auto run_once = [] {
    core::ClusterConfig cfg;
    cfg.topology = topo::make_fig1_network();
    cfg.policy = routing::Policy::kUpDown;
    core::Cluster c(std::move(cfg));
    workload::LoadConfig lc;
    lc.rate_msgs_per_s = 3000;
    lc.warmup = 1 * sim::kMs;
    lc.measure = 3 * sim::kMs;
    lc.seed = 42;
    return workload::run_load(c.queue(), c.ports(), lc).messages_delivered;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Load, BackpressureRefusesSendsAndBoundsLatency) {
  // A tiny GM send-token pool under absurd offered load: the runner must
  // surface the backpressure as sends_refused (not queue unboundedly), and
  // the latency of the messages that DO go out must stay bounded — refusal
  // happens at call time, so accepted messages never sit in a client queue.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_linear(2, 1);
  cfg.gm_config.send_tokens = 2;
  core::Cluster c(std::move(cfg));
  workload::LoadConfig lc;
  lc.message_bytes = 1024;
  lc.rate_msgs_per_s = 2e5;
  lc.warmup = 500 * sim::kUs;
  lc.measure = 3 * sim::kMs;
  auto result = workload::run_load(c.queue(), c.ports(), lc);
  EXPECT_GT(result.sends_refused, 100u);
  EXPECT_GT(result.messages_delivered, 0u);
  // With 2 tokens x 1 KB in flight, delivery latency is a few packet times,
  // nowhere near the measurement window.
  EXPECT_LT(result.latency_p999_ns, 1.0 * sim::kMs);
  EXPECT_GE(result.latency_p999_ns, result.latency_p99_ns);
}

TEST(Load, SweepResultsAreJobsInvariant) {
  // The motivation bench's --jobs guarantee, as a regression test: each
  // sweep point seeds per-host counter-style RNG streams, so results are
  // bit-identical no matter how many workers run the sweep.
  const std::vector<double> rates = {1e3, 3e3, 6e3};
  auto run_sweep = [&](unsigned jobs) {
    return sim::run_sweep_parallel(
        rates.size(),
        [&](std::size_t i) {
          core::ClusterConfig cfg;
          cfg.topology = topo::make_fig1_network();
          core::Cluster c(std::move(cfg));
          workload::LoadConfig lc;
          lc.rate_msgs_per_s = rates[i];
          lc.warmup = 500 * sim::kUs;
          lc.measure = 2 * sim::kMs;
          lc.seed = 7;
          return workload::run_load(c.queue(), c.ports(), lc);
        },
        jobs);
  };
  const auto serial = run_sweep(1);
  const auto parallel = run_sweep(3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].messages_delivered, parallel[i].messages_delivered);
    EXPECT_EQ(serial[i].sends_refused, parallel[i].sends_refused);
    EXPECT_DOUBLE_EQ(serial[i].latency_mean_ns, parallel[i].latency_mean_ns);
    EXPECT_DOUBLE_EQ(serial[i].latency_p999_ns, parallel[i].latency_p999_ns);
    EXPECT_DOUBLE_EQ(serial[i].accepted_bytes_per_s,
                     parallel[i].accepted_bytes_per_s);
  }
}

TEST(Load, PatternsAreSupported) {
  for (auto pattern : {workload::Pattern::kUniform, workload::Pattern::kHotspot,
                       workload::Pattern::kBitReversal}) {
    core::ClusterConfig cfg;
    cfg.topology = topo::make_fig1_network();
    cfg.policy = routing::Policy::kItb;
    core::Cluster c(std::move(cfg));
    workload::LoadConfig lc;
    lc.pattern = pattern;
    lc.rate_msgs_per_s = 1000;
    lc.warmup = 500 * sim::kUs;
    lc.measure = 2 * sim::kMs;
    auto result = workload::run_load(c.queue(), c.ports(), lc);
    EXPECT_GT(result.messages_delivered, 0u) << to_string(pattern);
  }
}

}  // namespace
