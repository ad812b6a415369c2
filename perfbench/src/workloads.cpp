#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "itb/core/experiments.hpp"
#include "itb/gm/header.hpp"
#include "itb/mapper/mapper.hpp"
#include "itb/packet/format.hpp"
#include "itb/routing/table.hpp"
#include "itb/sim/rng.hpp"
#include "itb/topo/builders.hpp"
#include "itb/workload/pingpong.hpp"

namespace perfbench {

using namespace itb;

namespace {

/// Independent sub-seeds of the one workload seed (traffic, faults).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return sim::Rng::stream(seed, stream).next_u64();
}
constexpr std::uint64_t kTrafficStream = 1;
constexpr std::uint64_t kChaosStream = 2;
constexpr std::uint64_t kEpochStream = 100;  // epoch k > 0: stream 100 + k

topo::Topology random_cow(std::uint16_t switches, std::uint64_t topo_seed) {
  sim::Rng rng(topo_seed);
  topo::IrregularSpec spec;
  spec.switches = switches;
  spec.hosts_per_switch = 4;
  return topo::make_random_irregular(spec, rng);
}

unsigned solve_jobs() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, hw);
}

/// The loaded-network configuration every workload shares (the one
/// scale_topology and svc_slo run): a 64-deep circular receive pool that
/// drops when full, GM retransmission behind it, deep send queues.
core::ClusterConfig base_config(const WorkloadSpec& w, topo::Topology topo,
                                std::uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.topology = std::move(topo);
  cfg.policy = routing::Policy::kItb;
  cfg.mcp_options.recv_buffers = 64;
  cfg.mcp_options.drop_when_full = true;
  cfg.gm_config.send_tokens = 64;
  cfg.gm_config.window = 32;
  cfg.gm_config.retransmit_timeout = 5 * sim::kMs;
  cfg.route_solve_jobs = w.route_jobs;
  if (w.traffic == Traffic::kSvcRpc) {
    fault::FaultSchedule::ChaosSpec spec;
    spec.horizon = w.warmup + w.measure;
    spec.link_windows = w.link_windows;
    spec.switch_windows = w.switch_windows;
    spec.stall_windows = w.stall_windows;
    spec.mean_duration = 800 * sim::kUs;
    spec.seed = derive_seed(seed, kChaosStream);
    cfg.fault_schedule = fault::FaultSchedule::chaos(cfg.topology, spec);
    cfg.remap_delay = 300 * sim::kUs;
    // Routes of two fault epochs can meet in flight and wedge the wormhole
    // fabric; the liveness watchdog detects the stall and breaks it (the
    // svc_slo chaos soak runs it too). Its verdicts are reported, and an
    // unrecovered stall fails the run.
    cfg.watchdog.enabled = true;
  }
  return cfg;
}

/// Per-host open-loop arrival stream: exponential gaps, uniform
/// destinations. A pure function of (seed, host), shared by the GM traffic
/// and the network ladder rung so both see the same message sequence.
class Arrivals {
 public:
  Arrivals(std::uint64_t seed, std::size_t host, std::size_t hosts,
           double rate_per_s)
      : rng_(sim::Rng::stream(seed, host)),
        host_(host),
        hosts_(hosts),
        mean_gap_ns_(1e9 / rate_per_s) {}

  sim::Duration next_gap() {
    return std::max<sim::Duration>(
        1, static_cast<sim::Duration>(rng_.next_exponential(mean_gap_ns_)));
  }
  std::uint16_t next_dst() {
    std::uint16_t dst = 0;
    do {
      dst = static_cast<std::uint16_t>(rng_.next_below(hosts_));
    } while (dst == host_);
    return dst;
  }

 private:
  sim::Rng rng_;
  std::size_t host_;
  std::size_t hosts_;
  double mean_gap_ns_;
};

void put_u64(packet::Bytes& b, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    b[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * (7 - i)));
}
std::uint64_t get_u64(const packet::Bytes& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | b[at + static_cast<std::size_t>(i)];
  return v;
}

/// Open-loop GM message traffic with per-message identity: every payload
/// carries (src, sequence) and its due instant, so the receiver side can
/// prove exactly-once delivery to the right host and measure latency from
/// the instant the message was due.
class GmTraffic {
 public:
  GmTraffic(sim::EventQueue& queue, std::vector<gm::GmPort*> ports,
            const WorkloadSpec& w, std::uint64_t seed, bool time_sends)
      : queue_(queue),
        ports_(std::move(ports)),
        bytes_(std::max<std::size_t>(w.message_bytes, 16)),
        window_start_(w.warmup),
        window_end_(w.warmup + w.measure),
        time_sends_(time_sends),
        sent_(ports_.size()) {
    const auto n = ports_.size();
    arrivals_.reserve(n);
    for (std::size_t h = 0; h < n; ++h) {
      arrivals_.emplace_back(seed, h, n, w.rate_per_host);
      ports_[h]->set_receive_handler(
          [this, h](sim::Time t, std::uint16_t src, packet::Bytes msg) {
            on_message(t, static_cast<std::uint16_t>(h), src, msg);
          });
    }
  }

  void start() {
    for (std::size_t h = 0; h < ports_.size(); ++h) arm(h);
  }

  void fill(SimOutcome& out) const {
    out.attempted = attempted_w_;
    out.refused = refused_w_;
    out.ok = delivered_w_;
    out.undelivered = accepted_w_ - delivered_w_;
    out.failed = out.refused + out.undelivered;
    out.accepted_in_window = delivered_in_window_;
    out.completed_total = delivered_total_;
    out.latency_samples = latency_;
    out.gm_send_refused = refused_total_;
    out.duplicates_seen = duplicates_;
    out.misdelivered = misdelivered_;
  }
  double send_call_ns() const { return send_ns_; }
  std::uint64_t send_calls() const { return send_calls_; }

 private:
  /// Per accepted message: intended destination and delivered flag.
  struct Sent {
    std::uint16_t dst;
    bool delivered;
  };

  void arm(std::size_t src) {
    queue_.schedule_in(arrivals_[src].next_gap(), [this, src] { fire(src); });
  }

  void fire(std::size_t src) {
    const sim::Time now = queue_.now();
    if (now >= window_end_) return;  // generation stops with the window
    const std::uint16_t dst = arrivals_[src].next_dst();
    const bool in_window = now >= window_start_;
    const auto seq = static_cast<std::uint64_t>(sent_[src].size());
    packet::Bytes msg(bytes_, 0);
    put_u64(msg, 0, (static_cast<std::uint64_t>(src) << 32) | seq);
    put_u64(msg, 8, static_cast<std::uint64_t>(now));
    bool accepted = false;
    if (time_sends_) {
      const auto t0 = Clock::now();
      accepted = ports_[src]->send(dst, std::move(msg));
      send_ns_ += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                      .count();
      ++send_calls_;
    } else {
      accepted = ports_[src]->send(dst, std::move(msg));
    }
    if (in_window) ++attempted_w_;
    if (accepted) {
      sent_[src].push_back(Sent{dst, false});
      if (in_window) ++accepted_w_;
    } else {
      ++refused_total_;
      if (in_window) ++refused_w_;
    }
    arm(src);
  }

  void on_message(sim::Time t, std::uint16_t at, std::uint16_t src,
                  const packet::Bytes& msg) {
    if (msg.size() != bytes_) {
      ++misdelivered_;
      return;
    }
    const std::uint64_t id = get_u64(msg, 0);
    const auto due = static_cast<sim::Time>(get_u64(msg, 8));
    const auto id_src = static_cast<std::size_t>(id >> 32);
    const auto seq = static_cast<std::size_t>(id & 0xffffffffu);
    if (id_src != src || id_src >= sent_.size() || seq >= sent_[src].size() ||
        sent_[src][seq].dst != at) {
      ++misdelivered_;
      return;
    }
    if (sent_[src][seq].delivered) {
      ++duplicates_;
      return;
    }
    sent_[src][seq].delivered = true;
    ++delivered_total_;
    if (t >= window_start_ && t < window_end_) ++delivered_in_window_;
    if (due >= window_start_ && due < window_end_) {
      ++delivered_w_;
      latency_.push_back(t - due);
    }
  }

  sim::EventQueue& queue_;
  std::vector<gm::GmPort*> ports_;
  std::size_t bytes_;
  sim::Time window_start_;
  sim::Time window_end_;
  bool time_sends_;
  std::vector<Arrivals> arrivals_;
  std::vector<std::vector<Sent>> sent_;  // [src][seq]

  std::uint64_t attempted_w_ = 0, accepted_w_ = 0, refused_w_ = 0;
  std::uint64_t delivered_w_ = 0, delivered_in_window_ = 0;
  std::uint64_t delivered_total_ = 0, refused_total_ = 0;
  std::uint64_t duplicates_ = 0, misdelivered_ = 0;
  std::vector<sim::Duration> latency_;
  double send_ns_ = 0;
  std::uint64_t send_calls_ = 0;
};

/// The svc_slo endpoint configuration: 8 admission tokens, heavy requests
/// cost up to 4 of them, a 32-deep blocked buffer, one retry.
svc::EndpointConfig endpoint_config(const WorkloadSpec& w) {
  svc::EndpointConfig ec;
  ec.server.admission.capacity_tokens = 8;
  ec.server.admission.queue_limit = 32;
  ec.server.cost_quantum = 150 * sim::kUs;
  ec.server.max_cost = 4;
  ec.client.max_retries = 1;
  ec.client.deadlines = {2 * sim::kMs, 8 * sim::kMs, 32 * sim::kMs};
  ec.client.measure_start = w.warmup;
  ec.client.measure_end = w.warmup + w.measure;
  return ec;
}

svc::OpenLoopConfig openloop_config(const WorkloadSpec& w, std::uint64_t seed) {
  svc::OpenLoopConfig lc;
  lc.arrivals = svc::ArrivalDist::kLognormal;
  lc.arrival_sigma = 1.5;
  lc.service = svc::ServiceDist::kBoundedPareto;
  lc.mean_service = 300 * sim::kUs;
  lc.pareto_alpha = 1.5;
  lc.pareto_cap = 50.0;
  lc.pattern = svc::SvcPattern::kUniform;
  lc.rate_rps = w.rate_per_host;
  lc.resp_bytes = 512;
  lc.duration = w.warmup + w.measure;
  lc.seed = derive_seed(seed, kTrafficStream);
  return lc;
}

// Counter sums: over hosts within a cluster, and over epochs.
void accumulate(gm::GmStats& a, const gm::GmStats& b) {
  a.messages_sent += b.messages_sent;
  a.messages_delivered += b.messages_delivered;
  a.packets_data += b.packets_data;
  a.packets_ack += b.packets_ack;
  a.retransmissions += b.retransmissions;
  a.duplicates += b.duplicates;
  a.out_of_order += b.out_of_order;
  a.send_failures += b.send_failures;
  a.messages_failed += b.messages_failed;
  a.packets_unroutable += b.packets_unroutable;
}

void accumulate(nic::NicStats& a, const nic::NicStats& b) {
  a.sent += b.sent;
  a.received += b.received;
  a.delivered_to_host += b.delivered_to_host;
  a.itb_forwarded += b.itb_forwarded;
  a.itb_pending_hits += b.itb_pending_hits;
  a.dropped_no_buffer += b.dropped_no_buffer;
  a.dropped_unroutable += b.dropped_unroutable;
  a.resourced_sends += b.resourced_sends;
  a.rx_unknown_type += b.rx_unknown_type;
  a.rx_bad_crc += b.rx_bad_crc;
  a.rx_aborted += b.rx_aborted;
}

void accumulate(net::NetworkStats& a, const net::NetworkStats& b) {
  a.injected += b.injected;
  a.delivered += b.delivered;
  a.dropped += b.dropped;
  a.head_blocks += b.head_blocks;
  a.faults_injected += b.faults_injected;
  a.lost += b.lost;
}

void accumulate(sim::EventQueue::Stats& a, const sim::EventQueue::Stats& b) {
  a.scheduled += b.scheduled;
  a.fired += b.fired;
  a.cancelled += b.cancelled;
  a.peak_pending = std::max(a.peak_pending, b.peak_pending);
  a.wheel_scheduled += b.wheel_scheduled;
  a.spill_scheduled += b.spill_scheduled;
}

void accumulate(fault::FaultStats& a, const fault::FaultStats& b) {
  a.windows_opened += b.windows_opened;
  a.windows_closed += b.windows_closed;
  a.lost_drop += b.lost_drop;
  a.corrupted += b.corrupted;
  a.lost_link_down += b.lost_link_down;
  a.lost_switch_down += b.lost_switch_down;
  a.lost_host_down += b.lost_host_down;
}

void accumulate(fault::RecoveryManager::Stats& a,
                const fault::RecoveryManager::Stats& b) {
  a.remaps += b.remaps;
  a.failed_remaps += b.failed_remaps;
  a.unreachable_hosts += b.unreachable_hosts;
  a.full_resolves += b.full_resolves;
  a.patch_rounds += b.patch_rounds;
  a.scoped_probes += b.scoped_probes;
  a.full_probe_equiv += b.full_probe_equiv;
  a.sources_patched += b.sources_patched;
  a.sources_total += b.sources_total;
  a.coalesced_events += b.coalesced_events;
  a.flaps_quarantined += b.flaps_quarantined;
  a.overflow_full_resolves += b.overflow_full_resolves;
  a.verify_fallbacks += b.verify_fallbacks;
}

void accumulate(svc::AdmissionStats& a, const svc::AdmissionStats& b) {
  a.offered += b.offered;
  a.admitted_immediate += b.admitted_immediate;
  a.admitted_from_queue += b.admitted_from_queue;
  a.queued += b.queued;
  a.rejected_full += b.rejected_full;
  a.evicted += b.evicted;
  a.departures += b.departures;
  a.first_fit_skips += b.first_fit_skips;
}

/// Layer counters every workload reads after the drain.
void collect_layers(core::Cluster& cluster, SimOutcome& out,
                    const sim::EventQueue::Stats& before) {
  out.hosts = cluster.host_count();
  for (std::uint16_t h = 0; h < cluster.host_count(); ++h) {
    accumulate(out.gm, cluster.port(h).stats());
    accumulate(out.nic, cluster.nic(h).stats());
  }
  out.net = cluster.network().stats();
  out.net_in_flight = cluster.network().in_flight();
  const auto& s = cluster.queue().stats();
  out.sim = s;
  out.sim.scheduled -= before.scheduled;
  out.sim.fired -= before.fired;
  out.sim.cancelled -= before.cancelled;
  out.sim.wheel_scheduled -= before.wheel_scheduled;
  out.sim.spill_scheduled -= before.spill_scheduled;
  out.sim_end = cluster.queue().now();
  out.drained = cluster.queue().empty();
  if (auto* f = cluster.faults()) out.fault = f->stats();
  if (const auto* h = cluster.health()) out.health = h->verdict();
  if (auto* r = cluster.recovery()) {
    out.recovery = r->stats();
    out.recovery_rounds = r->rounds().size();
    out.recovery_latency_sum_ns = r->recovery_latency().sum();
    out.recovery_latency_count = r->recovery_latency().count();
  }
}

/// Safety horizon for the drain: far beyond any GM retransmission chain the
/// workloads produce; a queue still busy here is reported as not drained.
constexpr sim::Time kDrainHorizon = 10'000 * sim::kMs;

TraceData collect_trace(core::Cluster& cluster) {
  TraceData td;
  const auto* fr = cluster.flight();
  td.recorded = fr->recorded();
  td.evicted = fr->evicted();
  const flight::WormTimeline timeline(fr->snapshot());
  td.stage_totals = timeline.totals();
  td.journeys = timeline.journeys().size();
  td.complete = timeline.complete_count();
  td.max_stage_residual = timeline.max_stage_residual();
  return td;
}

}  // namespace

std::vector<WorkloadSpec> workloads(bool smoke) {
  std::vector<WorkloadSpec> ws;

  WorkloadSpec cow;
  cow.name = "cow256_itb_64B";
  cow.traffic = Traffic::kGmMessages;
  cow.message_bytes = 64;
  cow.rate_per_host = 1e4;
  if (smoke) {
    cow.fabric = "cow16 (16 switches x 4 hosts)";
    cow.topology = [] { return random_cow(16, 2001); };
    cow.warmup = 500 * sim::kUs;
    cow.measure = 1 * sim::kMs;
  } else {
    // The scale_topology cow64 fabric: 64 switches, 4 hosts each.
    cow.fabric = "cow64 (64 switches x 4 hosts, scale_topology seed 2001)";
    cow.topology = [] { return random_cow(64, 2001); };
    cow.warmup = 1 * sim::kMs;
    cow.measure = 16 * sim::kMs;
    cow.flight_capacity = std::size_t{1} << 22;
  }
  ws.push_back(cow);

  WorkloadSpec ft;
  ft.name = "ft16_uniform_512B";
  ft.traffic = Traffic::kGmMessages;
  ft.message_bytes = 512;
  ft.rate_per_host = 1e4;
  ft.route_jobs = solve_jobs();
  if (smoke) {
    ft.fabric = "ft8 (k=8 fat tree, 128 hosts)";
    ft.topology = [] { return topo::make_fat_tree(8); };
    ft.warmup = 500 * sim::kUs;
    ft.measure = 1 * sim::kMs;
  } else {
    ft.fabric = "ft16 (k=16 fat tree, 1024 hosts)";
    ft.topology = [] { return topo::make_fat_tree(16); };
    ft.warmup = 1 * sim::kMs;
    ft.measure = 4 * sim::kMs;
    ft.flight_capacity = std::size_t{1} << 23;
  }
  ws.push_back(ft);

  WorkloadSpec sv;
  sv.name = "cow32_svc_faults";
  sv.traffic = Traffic::kSvcRpc;
  sv.rate_per_host = 1e4;
  // The svc_slo fabric: 8 switches x 4 hosts, topology seed 6001.
  sv.fabric = "cow8 (8 switches x 4 hosts, svc_slo seed 6001)";
  sv.topology = [] { return random_cow(8, 6001); };
  if (smoke) {
    sv.epochs = 2;
    sv.warmup = 1 * sim::kMs;
    sv.measure = 2 * sim::kMs;
    sv.link_windows = 2;
    sv.switch_windows = 1;
    sv.stall_windows = 1;
  } else {
    // The svc_slo chaos point (12 ms, 6 link + 1 switch + 2 stall windows),
    // repeated over independent epochs so one seed averages many fault mixes.
    sv.warmup = 2 * sim::kMs;
    sv.measure = 10 * sim::kMs;
    sv.epochs = 32;
    sv.link_windows = 6;
    sv.switch_windows = 1;
    sv.stall_windows = 2;
  }
  ws.push_back(sv);
  return ws;
}

double SimOutcome::latency_percentile(double p) const {
  if (latency_samples.empty()) return latency.percentile(p);
  // Linear interpolation between order statistics.
  std::vector<sim::Duration> v = latency_samples;
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return static_cast<double>(v[lo]) +
         (pos - static_cast<double>(lo)) * static_cast<double>(v[hi] - v[lo]);
}

std::uint64_t SimOutcome::latency_count() const {
  return latency_samples.empty() ? latency.count() : latency_samples.size();
}

void SimOutcome::merge(const SimOutcome& o) {
  hosts = std::max(hosts, o.hosts);
  attempted += o.attempted;
  ok += o.ok;
  failed += o.failed;
  refused += o.refused;
  late += o.late;
  undelivered += o.undelivered;
  accepted_in_window += o.accepted_in_window;
  completed_total += o.completed_total;
  latency_samples.insert(latency_samples.end(), o.latency_samples.begin(),
                         o.latency_samples.end());
  latency.merge(o.latency);
  accumulate(gm, o.gm);
  accumulate(nic, o.nic);
  accumulate(net, o.net);
  net_in_flight += o.net_in_flight;
  accumulate(sim, o.sim);
  sim_end = std::max(sim_end, o.sim_end);
  gm_send_refused += o.gm_send_refused;
  accumulate(fault, o.fault);
  accumulate(recovery, o.recovery);
  recovery_rounds += o.recovery_rounds;
  recovery_latency_sum_ns += o.recovery_latency_sum_ns;
  recovery_latency_count += o.recovery_latency_count;
  health.merge(o.health);
  slo.merge(o.slo);
  accumulate(admission, o.admission);
  svc_pending_after_drain += o.svc_pending_after_drain;
  duplicates_seen += o.duplicates_seen;
  misdelivered += o.misdelivered;
  drained = drained && o.drained;
}

void TraceData::merge(const TraceData& o) {
  stage_totals.add(o.stage_totals);
  journeys += o.journeys;
  complete += o.complete;
  max_stage_residual = std::max(max_stage_residual, o.max_stage_residual);
  recorded += o.recorded;
  evicted += o.evicted;
  send_call_ns += o.send_call_ns;
  send_calls += o.send_calls;
}

std::uint64_t SimOutcome::fingerprint() const {
  // The flight recorder's FNV-1a step over every outcome word; doubles by
  // their exact bit pattern.
  struct {
    std::uint64_t h = flight::kFingerprintSeed;
    void add(std::uint64_t word) { h = flight::fingerprint_mix(h, word); }
    void add(double v) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      add(bits);
    }
  } f;
  for (std::uint64_t v :
       {static_cast<std::uint64_t>(hosts), attempted, ok, failed, refused, late,
        undelivered, accepted_in_window, completed_total, latency_count(),
        gm_send_refused, duplicates_seen, misdelivered})
    f.add(v);
  for (sim::Duration d : latency_samples) f.add(static_cast<std::uint64_t>(d));
  f.add(latency.sum());
  f.add(latency_percentile(50));
  f.add(latency_percentile(99));
  for (std::uint64_t v :
       {gm.messages_sent, gm.messages_delivered, gm.packets_data,
        gm.packets_ack, gm.retransmissions, gm.duplicates, gm.out_of_order,
        gm.send_failures, gm.messages_failed, gm.packets_unroutable})
    f.add(v);
  for (std::uint64_t v :
       {nic.sent, nic.received, nic.delivered_to_host, nic.itb_forwarded,
        nic.itb_pending_hits, nic.dropped_no_buffer, nic.dropped_unroutable,
        nic.resourced_sends, nic.rx_unknown_type, nic.rx_bad_crc,
        nic.rx_aborted})
    f.add(v);
  for (std::uint64_t v : {net.injected, net.delivered, net.dropped,
                          net.head_blocks, net.faults_injected, net.lost})
    f.add(v);
  for (std::uint64_t v :
       {sim.scheduled, sim.fired, sim.cancelled, sim.peak_pending,
        sim.wheel_scheduled, sim.spill_scheduled,
        static_cast<std::uint64_t>(sim_end)})
    f.add(v);
  for (std::uint64_t v :
       {fault.windows_opened, fault.windows_closed, fault.lost_drop,
        fault.corrupted, fault.lost_link_down, fault.lost_switch_down,
        fault.lost_host_down})
    f.add(v);
  for (std::uint64_t v :
       {recovery.remaps, recovery.failed_remaps, recovery.full_resolves,
        recovery.patch_rounds, recovery.scoped_probes,
        recovery.full_probe_equiv, recovery.sources_patched,
        recovery.sources_total, recovery.coalesced_events,
        recovery.flaps_quarantined, recovery.overflow_full_resolves,
        recovery_rounds, recovery_latency_count})
    f.add(v);
  for (std::uint64_t v :
       {health.checks, health.stalls, health.buffer_deadlocks,
        health.channel_deadlocks, health.fault_blackholes,
        health.congestion_verdicts, health.pool_mode_switches,
        health.forced_ejections, health.recoveries, health.unrecovered})
    f.add(v);
  f.add(recovery_latency_sum_ns);
  for (std::uint64_t v :
       {slo.issued, slo.completed, slo.rejected, slo.retries,
        slo.deadline_misses, slo.failed, slo.stale_responses,
        slo.client_refused, slo.goodput_bytes, admission.offered,
        admission.admitted_immediate, admission.admitted_from_queue,
        admission.queued, admission.rejected_full, admission.evicted,
        admission.departures, admission.first_fit_skips})
    f.add(v);
  return f.h;
}

namespace {

RepResult run_epoch(const WorkloadSpec& w, std::uint64_t seed, bool traced) {
  RepResult r;
  auto t0 = Clock::now();
  topo::Topology fabric = w.topology();
  r.setup_total_s = seconds_since(t0);

  auto cfg = base_config(w, std::move(fabric), seed);
  if (traced) {
    cfg.flight.enabled = true;
    cfg.flight.capacity = w.flight_capacity;
    // The recovery engine re-solves every patched table from scratch and
    // byte-compares it; outcomes are unchanged unless a patch is wrong.
    cfg.recovery.verify_patches = true;
  }
  t0 = Clock::now();
  auto cluster = std::make_unique<core::Cluster>(std::move(cfg));
  r.setup_total_s += seconds_since(t0);
  const auto before = cluster->queue().stats();

  if (w.traffic == Traffic::kGmMessages) {
    GmTraffic traffic(cluster->queue(), cluster->ports(), w,
                      derive_seed(seed, kTrafficStream), traced);
    t0 = Clock::now();
    traffic.start();
    cluster->run(kDrainHorizon);
    r.traffic_s = seconds_since(t0);
    traffic.fill(r.out);
    collect_layers(*cluster, r.out, before);
    if (traced) {
      r.trace = collect_trace(*cluster);
      r.trace->send_call_ns = traffic.send_call_ns();
      r.trace->send_calls = traffic.send_calls();
    }
    return r;
  }

  // svc RPC under chaos faults.
  t0 = Clock::now();
  const auto ec = endpoint_config(w);
  std::vector<std::unique_ptr<svc::RpcEndpoint>> endpoints;
  std::vector<svc::RpcEndpoint*> eps;
  for (auto* port : cluster->ports()) {
    endpoints.push_back(
        std::make_unique<svc::RpcEndpoint>(cluster->queue(), *port, ec));
    eps.push_back(endpoints.back().get());
  }
  svc::OpenLoopDriver driver(cluster->queue(), eps, openloop_config(w, seed));
  r.setup_total_s += seconds_since(t0);

  t0 = Clock::now();
  driver.start();
  cluster->run(kDrainHorizon);
  r.traffic_s = seconds_since(t0);

  SimOutcome& out = r.out;
  out.slo = driver.merged_slo().combined();
  out.admission = driver.merged_admission();
  const auto& c = out.slo;
  out.attempted = c.issued + c.client_refused;
  out.refused = c.client_refused;
  out.late = c.deadline_misses - c.failed;
  out.undelivered = c.issued - c.completed;  // gave up, or never settled
  out.failed = out.refused + out.late + out.undelivered;
  out.ok = c.completed - out.late;
  out.accepted_in_window = out.ok;
  out.latency = c.total;
  for (const auto& ep : endpoints) {
    out.completed_total += ep->server().stats().responses_sent;
    out.gm_send_refused +=
        ep->client().gm_backpressure() + ep->server().stats().send_retries;
    out.svc_pending_after_drain += ep->client().pending();
  }
  collect_layers(*cluster, out, before);
  if (traced) r.trace = collect_trace(*cluster);
  return r;
}

}  // namespace

RepResult run_rep(const WorkloadSpec& w, std::uint64_t seed, bool traced) {
  RepResult r = run_epoch(w, seed, traced);
  for (int k = 1; k < w.epochs; ++k) {
    const RepResult e =
        run_epoch(w, derive_seed(seed, kEpochStream + static_cast<unsigned>(k)),
                  traced);
    r.setup_total_s += e.setup_total_s;
    r.traffic_s += e.traffic_s;
    r.out.merge(e.out);
    if (r.trace) r.trace->merge(*e.trace);
  }
  r.epochs = w.epochs;
  return r;
}

SetupSplit measure_setup_split(const WorkloadSpec& w) {
  SetupSplit s;
  auto t0 = Clock::now();
  topo::Topology fabric = w.topology();
  s.topology_s = seconds_since(t0);

  t0 = Clock::now();
  auto mapped = mapper::run(fabric, routing::Policy::kItb, 0,
                            routing::ItbHostSelection::kLowestIndex,
                            /*allow_partial=*/false, w.route_jobs);
  s.mapper_s = seconds_since(t0);
  s.probes = mapped.report.probes_sent;

  // The route solve alone, over the discovered graph exactly as the mapper
  // orients it.
  const topo::Topology& disc = mapped.report.discovered;
  const routing::UpDown updown(disc, 0);
  const routing::Router router(updown);
  t0 = Clock::now();
  const routing::RouteTable table(router, routing::Policy::kItb, w.route_jobs);
  s.solve_s = seconds_since(t0);

  s.avg_trunk_hops = table.average_trunk_hops();
  s.minimal_frac = table.minimal_fraction(router, w.route_jobs);
  s.itbs_per_route = table.average_itbs();
  const auto usage = table.channel_usage(disc);
  for (auto u : usage) s.peak_channel_routes = std::max(s.peak_channel_routes, u);
  std::size_t trunk_links = 0;
  for (topo::LinkId l = 0; l < disc.link_count(); ++l)
    if (disc.link(l).a.node.kind == topo::NodeKind::kSwitch &&
        disc.link(l).b.node.kind == topo::NodeKind::kSwitch)
      ++trunk_links;
  const auto hosts = static_cast<double>(disc.host_count());
  const double route_hops = s.avg_trunk_hops * hosts * (hosts - 1);
  s.channel_routes_lb =
      trunk_links ? route_hops / (2.0 * static_cast<double>(trunk_links)) : 0.0;

  // Cluster assembly without the mapper: the same table as manual routes.
  const auto n = fabric.host_count();
  std::vector<std::vector<std::vector<packet::Route>>> manual(
      n, std::vector<std::vector<packet::Route>>(n));
  for (std::uint16_t a = 0; a < n; ++a)
    for (std::uint16_t b = 0; b < n; ++b)
      if (a != b) manual[a][b] = mapped.table.route(a, b).segments;
  auto cfg = base_config(w, std::move(fabric), /*seed=*/1);
  cfg.manual_routes = std::move(manual);
  t0 = Clock::now();
  { const core::Cluster cluster(std::move(cfg)); s.assemble_s = seconds_since(t0); }
  return s;
}

// --- Ladder rungs ------------------------------------------------------------

namespace {

struct QueueRung {
  sim::EventQueue queue;
  std::uint64_t remaining = 0;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  std::uint64_t spill_threshold = 0;

  std::uint64_t next() {  // xorshift64*: cheap and local to the rung
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  }
  sim::Duration delay() {
    const std::uint64_t r = next();
    if ((r >> 32) < spill_threshold)
      return 1 * sim::kMs + static_cast<sim::Duration>(r % (4 * sim::kMs));
    return 1 + static_cast<sim::Duration>(r % 4000);
  }
  void tick() {
    if (remaining == 0) return;
    --remaining;
    queue.schedule_in(delay(), [this] { tick(); });
  }
};

/// Benchmark-owned endpoint for the network rung: accepts every packet.
class SinkHooks final : public net::HostHooks {
 public:
  void on_rx_head(sim::Time, net::TxHandle) override {}
  void on_rx_early_header(sim::Time, net::TxHandle,
                          const packet::Bytes&) override {}
  void on_rx_complete(sim::Time, net::WirePacket) override { ++received; }
  void on_tx_started(sim::Time, net::TxHandle) override {}
  void on_tx_complete(sim::Time, net::TxHandle) override {}
  std::uint64_t received = 0;
};

}  // namespace

double ladder_queue_ns_per_event(std::uint64_t events, std::uint64_t population,
                                 double spill_frac) {
  population = std::max<std::uint64_t>(1, std::min(population, events));
  auto rung = std::make_unique<QueueRung>();
  rung->remaining = events - population;
  rung->spill_threshold =
      static_cast<std::uint64_t>(std::clamp(spill_frac, 0.0, 1.0) * 4294967296.0);
  for (std::uint64_t i = 0; i < population; ++i)
    rung->queue.schedule_in(rung->delay(), [r = rung.get()] { r->tick(); });
  const auto t0 = Clock::now();
  const std::uint64_t fired = rung->queue.run();
  const double ns = seconds_since(t0) * 1e9;
  return fired ? ns / static_cast<double>(fired) : 0.0;
}

double ladder_net_ns_per_msg(const WorkloadSpec& w, std::uint64_t seed) {
  const topo::Topology fabric = w.topology();
  const auto n = fabric.host_count();
  const routing::UpDown updown(fabric, 0);
  const routing::Router router(updown);
  const routing::RouteTable table(router, routing::Policy::kUpDown,
                                  w.route_jobs);

  sim::EventQueue queue;
  sim::Tracer tracer;
  net::Network network(fabric, net::NetTiming{}, queue, tracer);
  std::vector<SinkHooks> sinks(n);
  for (std::uint16_t h = 0; h < n; ++h) network.attach_host(h, &sinks[h]);

  const std::uint64_t traffic_seed = derive_seed(seed, kTrafficStream);
  std::vector<Arrivals> arrivals;
  arrivals.reserve(n);
  for (std::size_t h = 0; h < n; ++h)
    arrivals.emplace_back(traffic_seed, h, n, w.rate_per_host);
  const packet::Bytes payload(gm::GmHeader::kSize + w.message_bytes, 0);
  const sim::Time end = w.warmup + w.measure;

  struct Gen {
    sim::EventQueue* queue;
    net::Network* network;
    const routing::RouteTable* table;
    std::vector<Arrivals>* arrivals;
    const packet::Bytes* payload;
    sim::Time end;
    void arm(std::uint16_t src) {
      queue->schedule_in((*arrivals)[src].next_gap(),
                         [this, src] { fire(src); });
    }
    void fire(std::uint16_t src) {
      if (queue->now() >= end) return;
      const std::uint16_t dst = (*arrivals)[src].next_dst();
      network->inject(src, packet::build_packet(
                               table->route(src, dst).segments.front(),
                               packet::PacketType::kGm, *payload));
      arm(src);
    }
  } gen{&queue, &network, &table, &arrivals, &payload, end};

  const auto t0 = Clock::now();
  for (std::uint16_t h = 0; h < n; ++h) gen.arm(h);
  queue.run();
  const double ns = seconds_since(t0) * 1e9;
  std::uint64_t received = 0;
  for (const auto& s : sinks) received += s.received;
  return received ? ns / static_cast<double>(received) : 0.0;
}

// --- Model accuracy ----------------------------------------------------------

ModelAccuracy measure_model_accuracy() {
  // Single-packet sizes of the paper's gm_allsize sweep (as in the fig7 and
  // fig8 benches); the unloaded ping-pong is deterministic, so a few
  // iterations give the same means as the benches' hundred.
  const std::vector<std::size_t> sizes = {4,   8,   16,   32,   64,  128,
                                          256, 512, 1024, 2048, 4000};
  constexpr int kIterations = 5;
  auto half_rtt = [&](core::Cluster& c, std::size_t size) {
    return workload::run_pingpong(c.queue(), c.port(core::kHost1),
                                  c.port(core::kHost2), size, kIterations)
        .half_rtt_ns;
  };
  ModelAccuracy m;
  auto orig = core::make_fig7_cluster(/*modified_mcp=*/false);
  auto mod = core::make_fig7_cluster(/*modified_mcp=*/true);
  auto ud = core::make_fig8_cluster(/*itb_path=*/false);
  auto itb = core::make_fig8_cluster(/*itb_path=*/true);
  for (std::size_t size : sizes) {
    m.fig7_mcp_overhead_ns += half_rtt(*mod, size) - half_rtt(*orig, size);
    // One ITB in the round trip: twice the half-round-trip difference.
    m.fig8_itb_hop_ns += 2.0 * (half_rtt(*itb, size) - half_rtt(*ud, size));
  }
  m.fig7_mcp_overhead_ns /= static_cast<double>(sizes.size());
  m.fig8_itb_hop_ns /= static_cast<double>(sizes.size());
  return m;
}

}  // namespace perfbench
