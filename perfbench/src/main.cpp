// perfbench: the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--git-sha <sha>] [--source-digest <hex>]
//
// --trace 0 repeats the untraced workload (fresh fabric + cluster + traffic
// each time) until --seconds of host time are spent, at least five times,
// and reports the end-to-end metrics: host-time medians over repetitions
// plus the simulated outcomes, which must repeat bit for bit.
// --trace 1 runs the set-up split, one untraced and one traced repetition
// (flight recorder armed, GmPort::send timed, recovery patches verified)
// and the layer-ladder rungs, and reports the per-layer metrics.
//
// Host times are normalised by a host-speed probe run between measured
// phases (see kProbeNominalS); `perfbench --probe` is that probe's child.
//
// Every invocation prints its provenance and the model's error against the
// paper's Fig. 7 / Fig. 8 references. The last stdout line is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// A failed correctness check prints the result with "correct": false and
// exits 1; bad arguments exit 2 without a result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "itb/telemetry/export.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_LTO
#define PERFBENCH_LTO 0
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool smoke = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--git-sha <sha>] "
               "[--source-digest <hex>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(value().c_str());
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--git-sha") {
      a.git_sha = value();
    } else if (k == "--source-digest") {
      a.source_digest = value();
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 ||
      (a.trace != 0 && a.trace != 1))
    usage("--workload, --seed, --seconds > 0 and --trace 0|1 are required");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }
double u64(std::uint64_t v) { return static_cast<double>(v); }

using itb::telemetry::JsonWriter;

/// Metrics in output order, each with its unit.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  /// {"name": {"value": v, "unit": u}, ...}
  void write(JsonWriter& j) const {
    j.begin_object();
    for (const auto& e : entries_) {
      j.key(e.name);
      j.begin_object();
      j.kv("value", e.value);
      j.kv("unit", e.unit);
      j.end_object();
    }
    j.end_object();
  }
  bool all_finite() const {
    for (const auto& e : entries_)
      if (!std::isfinite(e.value)) return false;
    return true;
  }
  void print(const std::string& heading) const {
    std::printf("%s\n", heading.c_str());
    for (const auto& e : entries_)
      std::printf("  %-30s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Host-speed normalisation (see kProbeNominalS): probe right before a
/// measured phase, then multiply that phase's host times by the factor.
class HostSpeed {
 public:
  HostSpeed(std::string exe, Checks& checks)
      : exe_(std::move(exe)), checks_(checks) {}
  double probe() {
    const double s = spawn_probe(exe_.c_str());
    checks_.require(s > 0, "host-speed probe ran");
    probes_.push_back(s);
    return s > 0 ? kProbeNominalS / s : 1.0;
  }
  const std::vector<double>& probes() const { return probes_; }

 private:
  std::string exe_;
  Checks& checks_;
  std::vector<double> probes_;
};

std::string self_exe() {
  std::string path(4096, '\0');
  const ssize_t n = readlink("/proc/self/exe", path.data(), path.size() - 1);
  path.resize(n > 0 ? static_cast<std::size_t>(n) : 0);
  return path;
}

/// Host-time samples over repetitions, with their spread.
void write_spread(JsonWriter& j, std::string_view key,
                  const std::vector<double>& v) {
  const auto q = quartiles(v);
  j.key(key);
  j.begin_object();
  j.kv("median", median(v));
  j.kv("q1", q.q1);
  j.kv("q3", q.q3);
  j.kv("min", v.empty() ? 0.0 : *std::min_element(v.begin(), v.end()));
  j.kv("max", v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()));
  j.kv("n", static_cast<std::uint64_t>(v.size()));
  j.end_object();
}

void write_provenance(JsonWriter& j, const Args& a, const WorkloadSpec& w) {
  j.begin_object();
  j.kv("git_sha", a.git_sha);
  j.kv("source_digest", a.source_digest);
  j.kv("compiler", PERFBENCH_COMPILER);
  j.kv("build_type", PERFBENCH_BUILD_TYPE);
  j.kv("lto", PERFBENCH_LTO != 0);
  j.kv("cpu", cpu_model());
  j.kv("nproc", static_cast<std::uint64_t>(
                    std::max(1u, std::thread::hardware_concurrency())));
  j.kv("route_solve_jobs", static_cast<std::uint64_t>(w.route_jobs));
  j.kv("seed", a.seed);
  j.end_object();
}

double window_s(const WorkloadSpec& w) {
  return static_cast<double>(w.measure * w.epochs) / 1e9;
}

double delivered_per_host_per_s(const WorkloadSpec& w, const SimOutcome& o) {
  return ratio(u64(o.accepted_in_window),
               window_s(w) * static_cast<double>(o.hosts));
}

/// The regime each workload was chosen for (see README.md).
void write_regime(JsonWriter& j, const WorkloadSpec& w, const SimOutcome& o) {
  const double itb_per_msg =
      ratio(u64(o.nic.itb_forwarded), u64(o.gm.messages_delivered));
  const double delivered = delivered_per_host_per_s(w, o);
  j.key("regime");
  j.begin_object();
  j.kv("itb_forwarded_per_msg", itb_per_msg);
  j.kv("delivered_over_offered", delivered / w.rate_per_host);
  j.kv("itb_forwarding", itb_per_msg > 0.5);
  j.kv("funnel", delivered < 0.5 * w.rate_per_host);
  j.kv("recovery_rounds", o.recovery_rounds);
  j.end_object();
}

/// The correctness checks every repetition's outcome must pass.
void check_outcome(Checks& checks, const WorkloadSpec& w, const SimOutcome& o,
                   const std::string& rep) {
  const std::string at = " [" + w.name + " " + rep + "]";
  checks.require(o.drained, "event queue drained" + at);
  checks.require(o.net_in_flight == 0, "no worm in flight after drain" + at);
  checks.require(o.net.injected == o.net.delivered + o.net.dropped + o.net.lost,
                 "loss ledger injected == delivered + dropped + lost" + at);
  checks.require(
      o.gm.messages_sent == o.gm.messages_delivered + o.gm.messages_failed,
      "GM ledger sent == delivered + failed" + at);
  checks.require(o.duplicates_seen == 0, "no message id delivered twice" + at);
  checks.require(o.misdelivered == 0, "every message reached its destination" + at);
  checks.require(o.ok + o.failed == o.attempted,
                 "delivered + failed == attempted" + at);
  checks.require(o.attempted > 0 && o.latency_count() > 0,
                 "window saw traffic and latency samples" + at);
  if (w.traffic == Traffic::kSvcRpc) {
    checks.require(o.svc_pending_after_drain == 0, "no RPC call left pending" + at);
    checks.require(o.slo.issued == o.slo.completed + o.slo.failed,
                   "every issued call completed or failed" + at);
    checks.require(o.health.unrecovered == 0,
                   "every watchdog stall recovered" + at);
  }
}

double msgs_per_host_s(const RepResult& r) {
  return ratio(u64(r.out.completed_total), r.traffic_s);
}

/// The result line's `attempted`/`failed`: the messages (calls) of ONE
/// repetition. Every repetition replays the same seeded messages and the
/// fingerprint check proves the outcomes equal, so these are a function of
/// the seed alone and do not grow with how many repetitions fit the budget.
struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Totals totals_of(const SimOutcome& o) { return {o.attempted, o.failed}; }

/// --trace 0: untraced repetitions (fresh fabric, cluster and traffic each,
/// same seed) until the time budget is spent; the end-to-end metrics.
Totals run_untraced(const Args& args, const WorkloadSpec& w,
                    Clock::time_point run_start, HostSpeed& speed,
                    Checks& checks, Metrics& m, JsonWriter& report) {
  constexpr std::size_t kMinReps = 5;
  constexpr std::size_t kMaxReps = 200;
  constexpr double kBudgetCapS = 140.0;  // stay inside the per-run limit
  // Only the first outcome is kept (the others must equal it), so memory
  // does not grow with the number of repetitions.
  std::optional<SimOutcome> first;
  std::uint64_t first_fp = 0;
  std::size_t reps = 0;
  std::vector<double> setup_raw, rate_raw, traffic;
  // One probe before the first repetition and one after each. The host
  // times are normalised by the run's MEDIAN probe: a single 40 ms probe
  // scatters by about 10 %, more than the slow drift it corrects moves
  // within one run.
  speed.probe();
  for (;;) {
    const auto t0 = Clock::now();
    RepResult r = run_rep(w, args.seed, /*traced=*/false);
    speed.probe();
    const double rep_s = seconds_since(t0);
    ++reps;
    check_outcome(checks, w, r.out, "rep " + std::to_string(reps));
    setup_raw.push_back(r.setup_s());
    rate_raw.push_back(msgs_per_host_s(r));
    traffic.push_back(r.traffic_s);
    const std::uint64_t fp = r.out.fingerprint();
    if (!first) {
      first = std::move(r.out);
      first_fp = fp;
    }
    checks.require(fp == first_fp,
                   "simulated fingerprint repeats across repetitions [" +
                       w.name + "]");
    const double elapsed = seconds_since(run_start);
    if (reps >= kMaxReps) break;
    if (reps >= kMinReps && elapsed >= args.seconds) break;
    if (elapsed + rep_s > kBudgetCapS) break;
  }

  const SimOutcome& o = *first;
  const double f_run = kProbeNominalS / median(speed.probes());
  m.add("setup_s", median(setup_raw) * f_run, "s");
  m.add("sim_msgs_per_host_s", median(rate_raw) / f_run, "msg/s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("delivered_per_host_per_s", delivered_per_host_per_s(w, o),
        "msg/s/host");
  m.add("lat_p50_us", o.latency_percentile(50) / 1000.0, "us");
  m.add("lat_p99_us", o.latency_percentile(99) / 1000.0, "us");
  m.add("ok_frac", ratio(u64(o.ok), u64(o.attempted)), "ratio");

  report.kv("reps", static_cast<std::uint64_t>(reps));
  report.key("spread");
  report.begin_object();
  write_spread(report, "setup_raw_s", setup_raw);
  write_spread(report, "sim_msgs_per_host_raw", rate_raw);
  write_spread(report, "traffic_raw_s", traffic);
  write_spread(report, "probe_s", speed.probes());
  report.end_object();
  report.kv("speed_factor", f_run);
  report.kv("fingerprint", std::to_string(first_fp));
  report.kv("lat_samples", o.latency_count());
  write_regime(report, w, o);
  m.print("end-to-end metrics, " + w.name);
  return totals_of(o);
}

/// --trace 1: the set-up split, one untraced and one traced repetition, the
/// ladder rungs; the per-layer metrics.
Totals run_traced(const Args& args, const WorkloadSpec& w,
                  const ModelAccuracy& acc, HostSpeed& speed, Checks& checks,
                  Metrics& m, JsonWriter& report) {
  // Each measured phase is normalised by the probe taken just before it.
  const double f_split = speed.probe();
  const SetupSplit split = measure_setup_split(w);
  const double f_plain = speed.probe();
  const RepResult plain = run_rep(w, args.seed, /*traced=*/false);
  const double f_traced = speed.probe();
  const RepResult traced = run_rep(w, args.seed, /*traced=*/true);
  check_outcome(checks, w, plain.out, "untraced");
  check_outcome(checks, w, traced.out, "traced");
  checks.require(plain.out.fingerprint() == traced.out.fingerprint(),
                 "traced run's simulated outcomes equal the untraced run's [" +
                     w.name + "]");
  const TraceData& td = *traced.trace;
  checks.require(td.complete > 0,
                 "flight timeline has complete journeys [" + w.name + "]");
  checks.require(td.max_stage_residual == 0,
                 "flight stage sums equal journey latency [" + w.name + "]");
  checks.require(traced.out.recovery.verify_fallbacks == 0,
                 "recovery.verify_fallbacks == 0 [" + w.name + "]");

  const SimOutcome& o = plain.out;
  const bool gm_traffic = w.traffic == Traffic::kGmMessages;
  const double msgs = u64(o.gm.messages_delivered);
  const double traffic_ns = plain.traffic_s * 1e9 * f_plain;
  const double spill_frac =
      ratio(u64(o.sim.spill_scheduled), u64(o.sim.scheduled));
  const double f_ladder = speed.probe();
  const double queue_ns =
      f_ladder *
      ladder_queue_ns_per_event(o.sim.fired, o.sim.peak_pending, spill_frac);
  const double net_ns =
      gm_traffic ? f_ladder * ladder_net_ns_per_msg(w, args.seed) : 0.0;
  using SB = itb::flight::StageBreakdown;
  const auto stage = [&](itb::sim::Duration SB::*field) {
    return ratio(static_cast<double>(td.stage_totals.*field),
                 1000.0 * static_cast<double>(td.complete));
  };

  // core/telemetry set-up, mapper, routing.
  m.add("setup.topology_s", split.topology_s * f_split, "s");
  m.add("setup.mapper_s", split.mapper_s * f_split, "s");
  m.add("setup.assemble_s", split.assemble_s * f_split, "s");
  m.add("mapper.probes", u64(split.probes), "count");
  m.add("routing.solve_s", split.solve_s * f_split, "s");
  m.add("routing.avg_trunk_hops", split.avg_trunk_hops, "hops");
  m.add("routing.minimal_frac", split.minimal_frac, "ratio");
  m.add("routing.itbs_per_route", split.itbs_per_route, "count");
  m.add("routing.peak_channel_routes", split.peak_channel_routes, "count");
  m.add("routing.channel_routes_lb", split.channel_routes_lb, "count");
  // sim.
  m.add("sim.events", u64(o.sim.fired), "count");
  m.add("sim.host_ns_per_event", ratio(traffic_ns, u64(o.sim.fired)), "ns");
  m.add("sim.peak_pending", u64(o.sim.peak_pending), "count");
  m.add("sim.spill_frac", spill_frac, "ratio");
  m.add("ladder.queue_ns_per_event", queue_ns, "ns");
  // net.
  m.add("net.head_blocks_per_msg", ratio(u64(o.net.head_blocks), msgs), "ratio");
  m.add("net.dropped", u64(o.net.dropped), "count");
  m.add("net.lost", u64(o.net.lost), "count");
  m.add("stage.inject_wait_us", stage(&SB::inject_wait), "us");
  m.add("stage.queueing_us", stage(&SB::queueing), "us");
  m.add("stage.wire_us", stage(&SB::wire), "us");
  m.add("stage.stream_us", stage(&SB::stream), "us");
  m.add("ladder.net_ns_per_msg", net_ns, "ns");
  // nic / host.
  m.add("nic.itb_forwarded_per_msg", ratio(u64(o.nic.itb_forwarded), msgs),
        "ratio");
  m.add("nic.itb_pending_frac",
        ratio(u64(o.nic.itb_pending_hits), u64(o.nic.itb_forwarded)), "ratio");
  m.add("nic.dropped_no_buffer", u64(o.nic.dropped_no_buffer), "count");
  m.add("nic.dropped_unroutable", u64(o.nic.dropped_unroutable), "count");
  m.add("nic.resourced_sends", u64(o.nic.resourced_sends), "count");
  m.add("stage.host_tx_us", stage(&SB::host_tx), "us");
  m.add("stage.itb_detect_us", stage(&SB::itb_detect), "us");
  m.add("stage.itb_wait_us", stage(&SB::itb_wait), "us");
  m.add("stage.itb_dma_us", stage(&SB::itb_dma), "us");
  m.add("stage.delivery_us", stage(&SB::delivery), "us");
  m.add("nic_gm.host_ns_per_msg",
        gm_traffic ? ratio(traffic_ns, msgs) - net_ns : 0.0, "ns");
  // gm.
  m.add("gm.send_call_ns",
        f_traced * ratio(td.send_call_ns, u64(td.send_calls)), "ns");
  m.add("gm.acks_per_msg", ratio(u64(o.gm.packets_ack), msgs), "ratio");
  m.add("gm.retransmissions_per_msg", ratio(u64(o.gm.retransmissions), msgs),
        "ratio");
  m.add("gm.duplicates", u64(o.gm.duplicates), "count");
  m.add("gm.out_of_order", u64(o.gm.out_of_order), "count");
  m.add("gm.refused", u64(o.gm_send_refused), "count");
  m.add("gm.messages_failed", u64(o.gm.messages_failed), "count");
  // svc.
  m.add("svc.admit_wait_p99_us", o.slo.admit.percentile(99) / 1000.0, "us");
  m.add("svc.network_p99_us", o.slo.network.percentile(99) / 1000.0, "us");
  m.add("svc.service_p99_us", o.slo.service.percentile(99) / 1000.0, "us");
  m.add("svc.blocking_prob", o.admission.blocking_probability(), "ratio");
  m.add("svc.retries_per_call", ratio(u64(o.slo.retries), u64(o.slo.issued)),
        "ratio");
  m.add("svc.evicted", u64(o.admission.evicted), "count");
  // fault / recovery / health.
  m.add("fault.windows_opened", u64(o.fault.windows_opened), "count");
  m.add("fault.lost", u64(o.fault.total_lost()), "count");
  m.add("recovery.rounds", u64(o.recovery_rounds), "count");
  m.add("recovery.patch_rounds", u64(o.recovery.patch_rounds), "count");
  m.add("recovery.sources_patched_frac",
        ratio(u64(o.recovery.sources_patched), u64(o.recovery.sources_total)),
        "ratio");
  m.add("recovery.scoped_probe_frac",
        ratio(u64(o.recovery.scoped_probes), u64(o.recovery.full_probe_equiv)),
        "ratio");
  m.add("recovery.verify_fallbacks", u64(traced.out.recovery.verify_fallbacks),
        "count");
  m.add("recovery.mean_us", o.recovery_mean_ns() / 1000.0, "us");
  m.add("health.stalls", u64(o.health.stalls), "count");
  m.add("health.forced_ejections", u64(o.health.forced_ejections), "count");
  // Outcome detail, tracing cost, model accuracy.
  m.add("failed_frac", ratio(u64(o.failed), u64(o.attempted)), "ratio");
  m.add("lat.samples", u64(o.latency_count()), "count");
  m.add("trace_overhead_frac",
        1.0 - ratio(msgs_per_host_s(traced) / f_traced,
                    msgs_per_host_s(plain) / f_plain),
        "ratio");
  m.add("model.fig7_mcp_overhead_ns", acc.fig7_mcp_overhead_ns, "ns");
  m.add("model.fig7_err_frac", acc.fig7_mcp_overhead_ns / kPaperFig7Ns - 1.0,
        "ratio");
  m.add("model.fig8_itb_hop_ns", acc.fig8_itb_hop_ns, "ns");
  m.add("model.fig8_err_frac", acc.fig8_itb_hop_ns / kPaperFig8Ns - 1.0,
        "ratio");

  report.key("flight");
  report.begin_object();
  report.kv("recorded", td.recorded);
  report.kv("evicted", td.evicted);
  report.kv("journeys", static_cast<std::uint64_t>(td.journeys));
  report.kv("complete", static_cast<std::uint64_t>(td.complete));
  report.end_object();
  report.kv("fingerprint", std::to_string(o.fingerprint()));
  write_spread(report, "probe_s", speed.probes());
  write_regime(report, w, o);
  m.print("per-layer metrics, " + w.name);
  return totals_of(o);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::string(argv[1]) == "--probe") {
    std::printf("%.9f\n", run_probe_loop());
    return 0;
  }
  const Args args = parse_args(argc, argv);
  const auto specs = workloads(args.smoke);
  const WorkloadSpec* w = nullptr;
  for (const auto& s : specs)
    if (s.name == args.workload) w = &s;
  if (!w) usage(("unknown workload " + args.workload).c_str());

  const auto run_start = Clock::now();
  std::ostringstream report_text;
  JsonWriter report(report_text);
  report.begin_object();
  report.kv("workload", w->name);
  report.kv("fabric", w->fabric);
  report.kv("seed", args.seed);
  report.kv("trace", args.trace);
  report.kv("smoke", args.smoke);
  report.key("provenance");
  write_provenance(report, args, *w);
  {
    std::ostringstream line;
    JsonWriter j(line);
    write_provenance(j, args, *w);
    std::printf("provenance %s\n", line.str().c_str());
  }

  // Model accuracy beside every simulated number.
  const ModelAccuracy acc = measure_model_accuracy();
  std::printf(
      "model accuracy: Fig.7 MCP overhead %.1f ns vs paper %.0f ns (error "
      "%+.1f%%); Fig.8 per-ITB hop %.1f ns vs paper %.0f ns (error %+.1f%%)\n",
      acc.fig7_mcp_overhead_ns, kPaperFig7Ns,
      100 * (acc.fig7_mcp_overhead_ns / kPaperFig7Ns - 1.0), acc.fig8_itb_hop_ns,
      kPaperFig8Ns, 100 * (acc.fig8_itb_hop_ns / kPaperFig8Ns - 1.0));
  report.key("model");
  report.begin_object();
  report.kv("fig7_mcp_overhead_ns", acc.fig7_mcp_overhead_ns);
  report.kv("fig8_itb_hop_ns", acc.fig8_itb_hop_ns);
  report.end_object();

  Checks checks;
  Metrics metrics;
  HostSpeed speed(self_exe(), checks);
  const Totals totals =
      args.trace == 0
          ? run_untraced(args, *w, run_start, speed, checks, metrics, report)
          : run_traced(args, *w, acc, speed, checks, metrics, report);
  checks.require(metrics.all_finite(), "every metric is a finite number");

  report.kv("elapsed_s", seconds_since(run_start));
  report.kv("checks", static_cast<std::uint64_t>(checks.count()));
  report.kv("checks_failed",
            static_cast<std::uint64_t>(checks.failures().size()));
  report.end_object();
  std::printf("report %s\n", report_text.str().c_str());

  const bool correct = checks.all_passed();
  std::ostringstream result_text;
  JsonWriter result(result_text);
  result.begin_object();
  result.kv("correct", correct);
  result.kv("attempted", totals.attempted);
  result.kv("failed", totals.failed);
  result.key("metrics");
  metrics.write(result);
  result.end_object();
  std::printf("%s\n", result_text.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
