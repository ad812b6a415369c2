// google-benchmark micro-benchmarks for the simulator's building blocks.
// These measure the *host* cost of running the reproduction (how fast the
// simulator itself is), not simulated time.
//
// For CLI uniformity with the other benches, `--json <path>` is accepted
// and translated to google-benchmark's own JSON reporter
// (--benchmark_out=<path> --benchmark_out_format=json); the document
// follows google-benchmark's schema, not itb.telemetry.v1.
#include <benchmark/benchmark.h>

#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "itb/telemetry/metrics.hpp"
#include "itb/telemetry/sampler.hpp"

#include "itb/core/bench.hpp"
#include "itb/core/cluster.hpp"
#include "itb/mapper/mapper.hpp"
#include "itb/packet/crc.hpp"
#include "itb/routing/deadlock.hpp"
#include "itb/sim/alloc_hook.hpp"
#include "itb/sim/event_queue.hpp"
#include "itb/sim/rng.hpp"
#include "itb/topo/builders.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;

void BM_EventQueueScheduleFire(benchmark::State& state) {
  sim::EventQueue q;
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.schedule_in(i, [&sink] { ++sink; });
    q.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // The GM retransmit-timer pattern: arm a far timer per message, cancel it
  // when the ack lands (almost always before it fires). The old engine paid
  // a heap entry + hash-set round trip per timer and kept the dead closure
  // until it surfaced; this measures schedule+cancel churn directly.
  sim::EventQueue q;
  std::int64_t sink = 0;
  for (auto _ : state) {
    sim::EventId timers[64];
    for (int i = 0; i < 64; ++i)
      timers[i] = q.schedule_in(5 * sim::kMs + i, [&sink] { ++sink; });
    for (int i = 0; i < 64; ++i) q.cancel(timers[i]);
    q.schedule_in(1, [&sink] { ++sink; });
    q.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_EventQueueFarTimers(benchmark::State& state) {
  // All events far beyond the near horizon (sampler ticks, retransmit
  // timeouts): exercises the spill path (old engine: the same heap).
  sim::EventQueue q;
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i)
      q.schedule_in((i + 1) * 100 * sim::kUs, [&sink] { ++sink; });
    q.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueFarTimers);

void BM_EventQueueMixedHorizon(benchmark::State& state) {
  // The realistic mix: mostly byte-time/cycle-cost events within a few us,
  // a minority of ms-scale timers (wheel + spill split in the new engine).
  sim::EventQueue q;
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 56; ++i) q.schedule_in(6 * (i + 1), [&sink] { ++sink; });
    for (int i = 0; i < 8; ++i)
      q.schedule_in(2 * sim::kMs + i, [&sink] { ++sink; });
    q.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueMixedHorizon);

void BM_Crc32(benchmark::State& state) {
  packet::Bytes data(static_cast<std::size_t>(state.range(0)), 0xA7);
  for (auto _ : state) benchmark::DoNotOptimize(packet::crc32(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096);

void BM_Crc8(benchmark::State& state) {
  packet::Bytes data(static_cast<std::size_t>(state.range(0)), 0xA7);
  for (auto _ : state) benchmark::DoNotOptimize(packet::crc8(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc8)->Arg(64)->Arg(4096);

void BM_BuildItbPacket(benchmark::State& state) {
  std::vector<packet::Route> segments{{1, 2, 3}, {4, 5}};
  packet::Bytes payload(1024, 0x3C);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        packet::build_itb_packet(segments, packet::PacketType::kGm, payload));
}
BENCHMARK(BM_BuildItbPacket);

void BM_UpDownOrientation(benchmark::State& state) {
  sim::Rng rng(7);
  topo::IrregularSpec spec;
  spec.switches = static_cast<std::uint16_t>(state.range(0));
  spec.hosts_per_switch = 2;
  auto topo = topo::make_random_irregular(spec, rng);
  for (auto _ : state) {
    routing::UpDown ud(topo);
    benchmark::DoNotOptimize(ud.depth(0));
  }
}
BENCHMARK(BM_UpDownOrientation)->Arg(8)->Arg(32);

void BM_ItbRouteTable(benchmark::State& state) {
  sim::Rng rng(7);
  topo::IrregularSpec spec;
  spec.switches = static_cast<std::uint16_t>(state.range(0));
  spec.hosts_per_switch = 2;
  auto topo = topo::make_random_irregular(spec, rng);
  routing::UpDown ud(topo);
  routing::Router router(ud);
  for (auto _ : state) {
    routing::RouteTable table(router, routing::Policy::kItb);
    benchmark::DoNotOptimize(table.average_trunk_hops());
  }
}
BENCHMARK(BM_ItbRouteTable)->Arg(8)->Arg(16);

// The thousand-host solve: a k-ary fat tree (k = range(0); ft16 has 1024
// hosts) at range(1) jobs. Times the solve alone (the table is destroyed
// with the clock paused) and reports the heap allocations per stored route.
void BM_ItbRouteTableFatTree(benchmark::State& state) {
  const auto topo = topo::make_fat_tree(static_cast<std::uint8_t>(state.range(0)));
  routing::UpDown ud(topo);
  routing::Router router(ud);
  const auto jobs = static_cast<unsigned>(state.range(1));
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const auto before = sim::total_allocations();
    std::optional<routing::RouteTable> table;
    table.emplace(router, routing::Policy::kItb, jobs);
    allocs += sim::total_allocations() - before;
    benchmark::DoNotOptimize(table);
    state.PauseTiming();
    table.reset();
    state.ResumeTiming();
  }
  const double hosts = static_cast<double>(topo.host_count());
  state.counters["allocs_per_route"] =
      static_cast<double>(allocs) /
      (static_cast<double>(state.iterations()) * hosts * (hosts - 1));
}
BENCHMARK(BM_ItbRouteTableFatTree)
    ->Args({16, 1})
    ->Args({16, 4})
    ->Unit(benchmark::kMillisecond);

void BM_MapperDiscovery(benchmark::State& state) {
  sim::Rng rng(7);
  topo::IrregularSpec spec;
  spec.switches = 16;
  spec.hosts_per_switch = 2;
  auto topo = topo::make_random_irregular(spec, rng);
  for (auto _ : state) {
    auto report = mapper::discover(topo, 0);
    benchmark::DoNotOptimize(report.probes_sent);
  }
}
BENCHMARK(BM_MapperDiscovery);

void BM_DeadlockCheck(benchmark::State& state) {
  sim::Rng rng(7);
  topo::IrregularSpec spec;
  spec.switches = 16;
  spec.hosts_per_switch = 2;
  auto topo = topo::make_random_irregular(spec, rng);
  routing::UpDown ud(topo);
  routing::Router router(ud);
  routing::RouteTable table(router, routing::Policy::kItb);
  for (auto _ : state) {
    routing::DependencyGraph graph(topo);
    graph.add_table(table, topo);
    benchmark::DoNotOptimize(graph.has_cycle());
  }
}
BENCHMARK(BM_DeadlockCheck);

void BM_SimulatedPingPong(benchmark::State& state) {
  // Cost of simulating one full GM ping-pong (the inner loop of every
  // figure bench).
  for (auto _ : state) {
    state.PauseTiming();
    core::ClusterConfig cfg;
    cfg.topology = topo::make_linear(2, 1);
    core::Cluster cluster(std::move(cfg));
    state.ResumeTiming();
    auto row = workload::run_pingpong(cluster.queue(), cluster.port(0),
                                      cluster.port(1), 256, 1);
    benchmark::DoNotOptimize(row.half_rtt_ns);
  }
}
BENCHMARK(BM_SimulatedPingPong);

// Per-host metric names in the shape Nic::register_metrics uses: a handful
// of names repeated under one host label per NIC.
constexpr const char* kSlotNames[] = {
    "sent",          "received",          "delivered_to_host",
    "itb_forwarded", "itb_pending_hits",  "dropped_no_buffer",
    "rx_bad_crc",    "dropped_unroutable", "resourced_sends",
    "rx_aborted"};
constexpr int kSlotNameCount = std::size(kSlotNames);

// Cluster set-up registers one slot per (layer, counter, host). per_slot,
// the host time per registration, must stay flat from 1000 to 42000 slots
// (the ft16 cluster's count): a registration cost that grows with the
// registry makes set-up quadratic in fabric size.
void BM_MetricRegistryRegister(benchmark::State& state) {
  const auto slots = static_cast<int>(state.range(0));
  for (auto _ : state) {
    telemetry::MetricRegistry reg;
    for (int i = 0; i < slots; ++i)
      reg.register_source("nic", kSlotNames[i % kSlotNameCount],
                          telemetry::MetricKind::kCounter, [] { return 0.0; },
                          {.host = i / kSlotNameCount, .channel = -1});
    benchmark::DoNotOptimize(reg.size());
  }
  state.SetItemsProcessed(state.iterations() * slots);
  state.counters["per_slot"] = benchmark::Counter(
      static_cast<double>(slots),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_MetricRegistryRegister)->Arg(1000)->Arg(10000)->Arg(42000);

// The sampler's per-channel/per-host probes, same flatness contract.
void BM_SamplerAddProbe(benchmark::State& state) {
  const auto probes = static_cast<int>(state.range(0));
  sim::EventQueue q;
  sim::Tracer tracer;
  for (auto _ : state) {
    telemetry::Sampler sampler(q, tracer);
    for (int i = 0; i < probes; ++i)
      sampler.add_probe(kSlotNames[i % kSlotNameCount],
                        {.host = -1, .channel = i / kSlotNameCount},
                        telemetry::Sampler::Mode::kRate, [] { return 0.0; });
    benchmark::DoNotOptimize(sampler.series().size());
  }
  state.SetItemsProcessed(state.iterations() * probes);
  state.counters["per_probe"] = benchmark::Counter(
      static_cast<double>(probes),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_SamplerAddProbe)->Arg(1000)->Arg(10000)->Arg(42000);

}  // namespace

int main(int argc, char** argv) {
  // Everything but --json goes on to google-benchmark, which owns the
  // handling of its own and of unknown flags.
  const auto parsed = itb::core::parse_args_or_exit(
      argc, argv, {{"--json", itb::core::Flag::kPath}}, itb::core::Rest::kAll);
  std::vector<std::string> args = {argv[0]};
  args.insert(args.end(), parsed.rest.begin(), parsed.rest.end());
  if (const auto json_path = parsed.value("--json")) {
    args.push_back("--benchmark_out=" + *json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> cargs;
  cargs.reserve(args.size());
  for (auto& a : args) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
