#include "itb/core/bench.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "itb/flight/chrome_trace.hpp"
#include "itb/flight/replay.hpp"
#include "itb/flight/timeline.hpp"

namespace itb::core {
namespace {

// Counts are capped at INT_MAX so callers may narrow them to int.
std::optional<std::uint64_t> to_count(std::string_view v) {
  std::uint64_t n = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
  if (v.empty() || ec != std::errc{} || end != v.data() + v.size() ||
      n > INT_MAX)
    return std::nullopt;
  return n;
}

void print_liveness_summary(const health::LivenessVerdict& v) {
  if (v.clean()) {
    std::printf("liveness: clean (%llu checks, no stalls)\n",
                static_cast<unsigned long long>(v.checks));
    return;
  }
  std::printf(
      "liveness: stalls=%llu (buffer=%llu channel=%llu blackhole=%llu "
      "congestion=%llu) pool_switches=%llu forced_ejections=%llu "
      "recovered=%llu unrecovered=%llu\n",
      static_cast<unsigned long long>(v.stalls),
      static_cast<unsigned long long>(v.buffer_deadlocks),
      static_cast<unsigned long long>(v.channel_deadlocks),
      static_cast<unsigned long long>(v.fault_blackholes),
      static_cast<unsigned long long>(v.congestion_verdicts),
      static_cast<unsigned long long>(v.pool_mode_switches),
      static_cast<unsigned long long>(v.forced_ejections),
      static_cast<unsigned long long>(v.recoveries),
      static_cast<unsigned long long>(v.unrecovered));
  if (!v.first_cycle.empty())
    std::printf("liveness: first diagnosed cycle: %s\n",
                v.first_cycle.c_str());
}

void add_liveness_scalars(telemetry::BenchReport& report,
                          const health::LivenessVerdict& v) {
  report.add_scalar("health_checks", static_cast<double>(v.checks));
  report.add_scalar("health_stalls", static_cast<double>(v.stalls));
  report.add_scalar("health_buffer_deadlocks",
                    static_cast<double>(v.buffer_deadlocks));
  report.add_scalar("health_pool_mode_switches",
                    static_cast<double>(v.pool_mode_switches));
  report.add_scalar("health_forced_ejections",
                    static_cast<double>(v.forced_ejections));
  report.add_scalar("health_recoveries", static_cast<double>(v.recoveries));
  report.add_scalar("health_unrecovered", static_cast<double>(v.unrecovered));
}

}  // namespace

std::optional<std::string> Args::value(std::string_view flag) const {
  const auto it = values.find(flag);
  if (it == values.end()) return std::nullopt;
  return it->second;
}

std::uint64_t Args::count(std::string_view flag,
                          std::uint64_t fallback) const {
  const auto it = values.find(flag);
  return it == values.end() ? fallback : to_count(it->second).value();
}

Args parse_args(int argc, char** argv, const std::vector<Flag>& flags,
                Rest rest) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      if (rest == Rest::kNothing)
        throw std::invalid_argument("unexpected argument '" +
                                    std::string(arg) + "'");
      args.rest.emplace_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    const auto flag = std::find_if(flags.begin(), flags.end(),
                                   [&](const Flag& f) { return f.name == name; });
    if (flag == flags.end()) {
      if (rest != Rest::kAll) throw std::invalid_argument("unknown flag " + name);
      args.rest.emplace_back(arg);
      continue;
    }
    std::string value;
    if (flag->kind == Flag::kSwitch) {
      if (eq != std::string_view::npos)
        throw std::invalid_argument(name + " takes no value");
    } else {
      if (eq != std::string_view::npos)
        value = arg.substr(eq + 1);
      else if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--"))
        value = argv[++i];
      if (value.empty()) throw std::invalid_argument(name + " needs a value");
      if (flag->kind == Flag::kCount && !to_count(value))
        throw std::invalid_argument(name + " needs a number up to " +
                                    std::to_string(INT_MAX) + ", got '" +
                                    value + "'");
    }
    args.values[name] = std::move(value);
  }
  return args;
}

void usage_exit(const char* argv0, const std::vector<Flag>& flags,
                std::string_view problem) {
  std::string prog = argv0;
  prog.erase(0, prog.rfind('/') + 1);
  std::string line = prog + ": " + std::string(problem) + "; usage: " + prog;
  for (const Flag& f : flags) {
    line += " [" + std::string(f.name);
    if (f.kind == Flag::kPath) line += " PATH";
    if (f.kind == Flag::kCount) line += " N";
    line += "]";
  }
  std::fprintf(stderr, "%s\n", line.c_str());
  std::exit(2);
}

Args parse_args_or_exit(int argc, char** argv, const std::vector<Flag>& flags,
                        Rest rest) {
  try {
    return parse_args(argc, argv, flags, rest);
  } catch (const std::invalid_argument& e) {
    usage_exit(argv[0], flags, e.what());
  }
}

Bench::Bench(std::string name, int argc, char** argv, unsigned takes,
             std::vector<Flag> extra)
    : name_(std::move(name)), report_(name_) {
  std::vector<Flag> flags = {{"--json", Flag::kPath}};
  if (takes & kJobs) flags.push_back({"--jobs", Flag::kCount});
  if (takes & kWatchdog) flags.push_back({"--watchdog"});
  if (takes & kFlight) {
    flags.push_back({"--flight"});
    flags.push_back({"--flight-out", Flag::kPath});
    flags.push_back({"--flight-trace", Flag::kPath});
  }
  flags.insert(flags.end(), extra.begin(), extra.end());
  args_ = parse_args_or_exit(argc, argv, flags);
  json_ = args_.value("--json");
  jobs_ = static_cast<unsigned>(args_.count("--jobs", 0));
  watchdog_ = args_.has("--watchdog");
  flight_out_ = args_.value("--flight-out");
  flight_trace_ = args_.value("--flight-trace");
  flight_ = args_.has("--flight") || flight_out_ || flight_trace_;
}

void Bench::default_flight_trace(std::string path) {
  if (flight_ && !flight_trace_) flight_trace_ = std::move(path);
}

flight::RecorderConfig Bench::recorder() const {
  flight::RecorderConfig rc;
  rc.enabled = flight_;
  return rc;
}

health::WatchdogConfig Bench::watchdog_config() const {
  health::WatchdogConfig wc;
  wc.enabled = watchdog_;
  return wc;
}

void Bench::arm(ClusterConfig& cfg) const {
  cfg.watchdog.enabled = watchdog_;
  cfg.flight = recorder();
}

Capture Bench::capture(const Cluster& c, bool telemetry) {
  Capture cap;
  if (telemetry) {
    cap.counters = c.telemetry().registry().snapshot();
    if (c.telemetry().sampler().ticks() > 0)
      cap.series = c.telemetry().sampler().series();
  }
  if (c.health()) cap.liveness = c.health()->verdict();
  if (c.flight()) cap.recording = c.flight()->snapshot();
  return cap;
}

void Bench::add(Capture capture, const std::string& run) {
  liveness_.merge(capture.liveness);
  if (flight_) recordings_.push_back(std::move(capture.recording));
  if (!capture.counters.empty())
    report_.add_counters(run, std::move(capture.counters));
  if (!capture.series.empty())
    report_.add_series(run, std::move(capture.series));
}

int Bench::finish(bool ok) {
  if (watchdog_) print_liveness_summary(liveness_);
  ok = finish_flight() && ok;
  if (watchdog_) add_liveness_scalars(report_, liveness_);
  if (json_) {
    if (!report_.write(*json_)) {
      std::fprintf(stderr, "cannot write %s\n", json_->c_str());
      return 1;
    }
    std::fprintf(stderr, "JSON report written to %s\n", json_->c_str());
  }
  return ok ? 0 : 1;
}

// Prints the critical-path table and fingerprint, writes --flight-out and
// --flight-trace, and adds the flight.* scalars. False when the stage-sum
// invariant fails (a complete journey whose critical-path sum is off by
// >= 1 ns from its end-to-end latency) or a file cannot be written.
bool Bench::finish_flight() {
  if (!flight_) return true;
  flight::Recording m;
  m.fingerprint = flight::kFingerprintSeed;
  for (const auto& r : recordings_) m.append(r);

  // Stitch one timeline per simulation point: transmission handles, GM
  // tokens and timestamps are only unique within a point's cluster, so a
  // single timeline over the concatenated stream would cross-link packets
  // from different points. Stats sum; the fingerprint chains over `m`.
  flight::StageBreakdown totals;
  std::size_t journey_count = 0, complete = 0;
  sim::Duration max_residual = 0;
  flight::WormTimeline::ItbHopSplit split;
  std::vector<flight::Journey> journeys;
  for (const auto& r : recordings_) {
    const flight::WormTimeline tl(r);
    totals.add(tl.totals());
    journey_count += tl.journeys().size();
    complete += tl.complete_count();
    max_residual = std::max(max_residual, tl.max_stage_residual());
    const auto s = tl.itb_hop_split();
    // Re-weight the per-point means into one global mean.
    split.detect_ns += s.detect_ns * static_cast<double>(s.hops);
    split.wait_ns += s.wait_ns * static_cast<double>(s.hops);
    split.dma_ns += s.dma_ns * static_cast<double>(s.hops);
    split.hops += s.hops;
    journeys.insert(journeys.end(), tl.journeys().begin(),
                    tl.journeys().end());
  }
  if (split.hops > 0) {
    split.detect_ns /= static_cast<double>(split.hops);
    split.wait_ns /= static_cast<double>(split.hops);
    split.dma_ns /= static_cast<double>(split.hops);
  }

  const std::string fingerprint =
      flight::ReplayChecker::fingerprint_hex(m.fingerprint);
  std::printf("\nflight recorder: %llu events (%llu evicted), "
              "%zu journeys (%zu complete), fingerprint %s\n",
              static_cast<unsigned long long>(m.recorded),
              static_cast<unsigned long long>(m.evicted), journey_count,
              complete, fingerprint.c_str());
  if (complete > 0) {
    const double n = static_cast<double>(complete);
    std::printf("critical path per delivered packet (mean over %zu):\n",
                complete);
    for (const auto& view : flight::stage_views()) {
      const auto d = totals.*(view.field);
      if (d == 0) continue;
      std::printf("  %-12s %10.3f us\n", view.name,
                  static_cast<double>(d) / n / 1000.0);
    }
    std::printf("  %-12s %10.3f us\n", "total",
                static_cast<double>(totals.total()) / n / 1000.0);
  }
  if (split.hops > 0)
    std::printf("per-ITB hop (mean over %zu): detect %.3f us + wait %.3f us "
                "+ dma %.3f us = %.3f us\n",
                split.hops, split.detect_ns / 1000.0, split.wait_ns / 1000.0,
                split.dma_ns / 1000.0, split.total_ns() / 1000.0);

  bool ok = true;
  if (max_residual >= 1) {
    std::fprintf(stderr,
                 "flight: critical-path sum diverges from measured journey "
                 "latency by %lld ns\n",
                 static_cast<long long>(max_residual));
    ok = false;
  }
  if (flight_out_) {
    if (flight::ReplayChecker::save(m, *flight_out_)) {
      std::printf("flight recording written to %s\n", flight_out_->c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", flight_out_->c_str());
      ok = false;
    }
  }
  if (flight_trace_) {
    if (flight::write_chrome_trace(*flight_trace_, name_, journeys)) {
      std::printf("Chrome trace written to %s (load in ui.perfetto.dev)\n",
                  flight_trace_->c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", flight_trace_->c_str());
      ok = false;
    }
  }

  for (const auto& view : flight::stage_views())
    report_.add_scalar(std::string("flight.path.") + view.name + "_ns",
                       static_cast<double>(totals.*(view.field)));
  report_.add_scalar("flight.path.total_ns",
                     static_cast<double>(totals.total()));
  report_.add_scalar("flight.journeys", static_cast<double>(journey_count));
  report_.add_scalar("flight.complete_journeys",
                     static_cast<double>(complete));
  report_.add_scalar("flight.events", static_cast<double>(m.recorded));
  report_.add_scalar("flight.itb_hop_mean_ns", split.total_ns());
  report_.set_param("flight.fingerprint", fingerprint);
  return ok;
}

}  // namespace itb::core
