// The three benchmark workloads and everything that runs them through the
// simulator's public API: one repetition (set-up + open-loop traffic +
// drain), the set-up split into its layers, the layer-ladder rungs and the
// model-accuracy reference runs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "itb/core/cluster.hpp"
#include "itb/flight/timeline.hpp"
#include "itb/svc/openloop.hpp"
#include "itb/telemetry/histogram.hpp"

namespace perfbench {

enum class Traffic : std::uint8_t {
  kGmMessages,  // open-loop Poisson GM messages, uniform destinations
  kSvcRpc,      // svc RPC open loop (lognormal arrivals) under chaos faults
};

struct WorkloadSpec {
  std::string name;
  std::string fabric;  // human label of the topology
  Traffic traffic = Traffic::kGmMessages;
  std::function<itb::topo::Topology()> topology;
  std::size_t message_bytes = 64;  // GM workloads
  double rate_per_host = 1e4;      // msgs/s/host, or req/s/client for svc
  itb::sim::Duration warmup = 1 * itb::sim::kMs;
  itb::sim::Duration measure = 4 * itb::sim::kMs;
  unsigned route_jobs = 1;
  /// Independent epochs per repetition, each a fresh cluster with its own
  /// traffic and fault seeds; outcomes pool across epochs.
  int epochs = 1;
  // Chaos fault mix (svc workload only).
  int link_windows = 0;
  int switch_windows = 0;
  int stall_windows = 0;
  /// Flight-recorder ring size for the traced run (events).
  std::size_t flight_capacity = std::size_t{1} << 20;
};

/// The benchmark's workloads; `smoke` shrinks fabrics and windows so every
/// metric and check runs in seconds.
std::vector<WorkloadSpec> workloads(bool smoke);

/// Simulated outcomes of one repetition. Deterministic for a given
/// (workload, seed): two repetitions must agree bit for bit.
struct SimOutcome {
  std::size_t hosts = 0;
  // Message (GM) or call (svc) accounting over the measurement window.
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;      // refused at the sender (tokens / limit)
  std::uint64_t late = 0;         // svc: completed past its deadline
  std::uint64_t undelivered = 0;  // accepted but never delivered / settled
  /// Deliveries (GM) or in-deadline completions (svc) counted for accepted
  /// throughput over the window.
  std::uint64_t accepted_in_window = 0;
  /// Messages (GM) or calls (svc) completed over the whole traffic phase.
  std::uint64_t completed_total = 0;
  /// Due instant -> delivery (GM) or call() -> response (svc), window
  /// only. GM workloads keep every sample (exact percentiles); the svc
  /// layer exposes its log-bucketed histogram.
  std::vector<itb::sim::Duration> latency_samples;
  itb::telemetry::LatencyHistogram latency;
  double latency_percentile(double p) const;
  std::uint64_t latency_count() const;

  // Layer counters, summed over hosts.
  itb::gm::GmStats gm;
  itb::nic::NicStats nic;
  itb::net::NetworkStats net;
  std::size_t net_in_flight = 0;
  itb::sim::EventQueue::Stats sim;  // over the traffic phase
  itb::sim::Time sim_end = 0;
  std::uint64_t gm_send_refused = 0;  // GmPort::send returned false

  // Faults and recovery (svc workload).
  itb::fault::FaultStats fault;
  itb::fault::RecoveryManager::Stats recovery;
  std::uint64_t recovery_rounds = 0;
  double recovery_latency_sum_ns = 0;
  std::uint64_t recovery_latency_count = 0;
  double recovery_mean_ns() const {
    return recovery_latency_count
               ? recovery_latency_sum_ns /
                     static_cast<double>(recovery_latency_count)
               : 0.0;
  }

  // Liveness watchdog (svc workload): wedges detected and broken.
  itb::health::LivenessVerdict health;

  // Service layer (svc workload).
  itb::svc::SloClassStats slo;
  itb::svc::AdmissionStats admission;
  std::uint64_t svc_pending_after_drain = 0;

  // Exactly-once evidence (GM workloads: per-message ids in the payload).
  std::uint64_t duplicates_seen = 0;
  std::uint64_t misdelivered = 0;
  bool drained = true;

  std::uint64_t fingerprint() const;
  /// Fold another epoch's outcome into this one (sums, pooled latencies).
  void merge(const SimOutcome& o);
};

/// What only the traced repetition produces.
struct TraceData {
  void merge(const TraceData& o);

  itb::flight::StageBreakdown stage_totals;
  std::size_t journeys = 0;
  std::size_t complete = 0;
  itb::sim::Duration max_stage_residual = 0;
  std::uint64_t recorded = 0;
  std::uint64_t evicted = 0;
  double send_call_ns = 0;  // summed host ns inside GmPort::send
  std::uint64_t send_calls = 0;
};

struct RepResult {
  // Host seconds, summed over the repetition's epochs.
  double setup_total_s = 0;  // topology + core::Cluster + svc endpoints
  double traffic_s = 0;      // open-loop phase + drain
  int epochs = 1;
  /// Set-up of one fabric, mean per epoch.
  double setup_s() const { return setup_total_s / epochs; }
  SimOutcome out;
  std::optional<TraceData> trace;
};

/// One repetition: per epoch, build the fabric and cluster, run the
/// open-loop traffic for warmup + measure, drain the event queue completely.
RepResult run_rep(const WorkloadSpec& w, std::uint64_t seed, bool traced);

/// Set-up split into its layers, each timed from outside around its public
/// call, plus the static route metrics of the solved table.
struct SetupSplit {
  double topology_s = 0;
  double mapper_s = 0;    // standalone mapper::run (walk + solve)
  double solve_s = 0;     // RouteTable constructor at the workload's jobs
  double assemble_s = 0;  // Cluster with manual_routes from that table
  std::uint64_t probes = 0;
  double avg_trunk_hops = 0;
  double minimal_frac = 0;
  double itbs_per_route = 0;
  std::uint32_t peak_channel_routes = 0;
  double channel_routes_lb = 0;  // sum of route trunk hops / trunk channels
};
SetupSplit measure_setup_split(const WorkloadSpec& w);

/// Ladder rung L0: an EventQueue alone firing no-op events, `events` in
/// total, holding `population` pending, a `spill_frac` share scheduled
/// beyond the near-horizon wheel. Host ns per event.
double ladder_queue_ns_per_event(std::uint64_t events, std::uint64_t population,
                                 double spill_frac);

/// Ladder rung L1: the workload's (src, dst, size) message sequence
/// injected straight into net::Network over single-segment up*/down*
/// routes, delivered into a benchmark-owned HostHooks sink. Host ns per
/// delivered packet. GM workloads only.
double ladder_net_ns_per_msg(const WorkloadSpec& w, std::uint64_t seed);

/// The simulator against the paper's two reference measurements.
struct ModelAccuracy {
  double fig7_mcp_overhead_ns = 0;  // paper: ~125 ns
  double fig8_itb_hop_ns = 0;       // paper: ~1.3 us
};
inline constexpr double kPaperFig7Ns = 125.0;
inline constexpr double kPaperFig8Ns = 1300.0;
ModelAccuracy measure_model_accuracy();

}  // namespace perfbench
