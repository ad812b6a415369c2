// Bench harness: the one command line, per-point capture and end-of-run
// finisher that every bench main shares.
//
// Command line. A binary declares the flags it takes; each is a switch
// (`--flag`) or takes a value (`--flag V` or `--flag=V`), and a count's
// value must be a decimal number in [0, INT_MAX]. Bad input — a value flag
// without its value, a non-numeric count, an unknown `--` flag, a stray
// operand — prints one usage line on stderr and exits 2. The flags the
// benches share:
//
//   --json PATH          write the itb.telemetry.v1 report to PATH
//   --jobs N             worker threads (0 = hardware concurrency, default)
//   --watchdog           arm the liveness watchdog; print the verdict
//   --flight             record packet lifecycles; print the critical-path
//                        summary and the run fingerprint
//   --flight-out PATH    also save the merged recording as itb.flight.v1
//   --flight-trace PATH  also write the Chrome trace_event JSON (Perfetto)
//
// `--flight-out`/`--flight-trace` imply `--flight`.
//
// Per-point capture. A sweep point arms its ClusterConfig with arm(), runs,
// and returns capture(cluster) by value with its other results, so the
// cluster can die on its worker thread.
//
// Finisher. The main thread hands every capture to add() in point order —
// merged liveness verdict, flight fingerprint and report are then
// bit-identical for any --jobs value, which CI asserts — and ends with
// `return bench.finish();`.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "itb/core/cluster.hpp"
#include "itb/flight/recorder.hpp"
#include "itb/health/watchdog.hpp"
#include "itb/telemetry/export.hpp"

namespace itb::core {

/// One command-line flag, spelled with its leading "--".
struct Flag {
  enum Kind { kSwitch, kPath, kCount };
  std::string_view name;
  Kind kind = kSwitch;
};

/// What parse_args leaves in Args::rest instead of rejecting it.
enum class Rest {
  kNothing,
  kOperands,
  kAll,  // operands and unknown flags, for a parser further down the line
};

/// A parsed command line.
struct Args {
  /// Flags that were given, by name; a switch maps to "".
  std::map<std::string, std::string, std::less<>> values;
  std::vector<std::string> rest;

  bool has(std::string_view flag) const { return values.contains(flag); }
  std::optional<std::string> value(std::string_view flag) const;
  std::uint64_t count(std::string_view flag, std::uint64_t fallback) const;
};

/// Parse argv against `flags`. Throws std::invalid_argument naming the
/// problem: a value flag without its value (a following `--` argument does
/// not count as one), a non-numeric count, or an unknown `--` flag or an
/// operand that `rest` does not let through.
Args parse_args(int argc, char** argv, const std::vector<Flag>& flags,
                Rest rest = Rest::kNothing);

/// Print "<prog>: <problem>; usage: <prog> [flags...]" on stderr, exit 2.
[[noreturn]] void usage_exit(const char* argv0, const std::vector<Flag>& flags,
                             std::string_view problem);

/// parse_args, leaving through usage_exit on bad input.
Args parse_args_or_exit(int argc, char** argv, const std::vector<Flag>& flags,
                        Rest rest = Rest::kNothing);

/// What a sweep point hands back to the harness.
struct Capture {
  std::vector<telemetry::MetricSample> counters;   // capture(c, true) only
  std::vector<telemetry::Sampler::Series> series;  // ... from a sampled run
  health::LivenessVerdict liveness;                // --watchdog only
  flight::Recording recording;                     // --flight only
};

class Bench {
 public:
  /// Shared flags a bench takes on top of --json.
  enum Takes : unsigned {
    kJobs = 1,
    kWatchdog = 2,
    kFlight = 4,
    kSweep = kJobs | kWatchdog | kFlight,
  };

  /// Parse the command line (exits 2 on bad input); `extra` are the
  /// bench's own flags, read back through args().
  Bench(std::string name, int argc, char** argv, unsigned takes,
        std::vector<Flag> extra = {});

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  bool json() const { return json_.has_value(); }
  unsigned jobs() const { return jobs_; }
  bool watchdog() const { return watchdog_; }
  bool flight() const { return flight_; }
  const Args& args() const { return args_; }

  /// Where --flight writes the Chrome trace when --flight-trace is absent.
  void default_flight_trace(std::string path);

  flight::RecorderConfig recorder() const;
  health::WatchdogConfig watchdog_config() const;
  /// Arm `cfg` for --watchdog and --flight.
  void arm(ClusterConfig& cfg) const;

  /// After a run: the liveness verdict and flight recording of whichever is
  /// armed, plus — with `telemetry` — the registry counters and, if the
  /// sampler ran, its series.
  static Capture capture(const Cluster& c, bool telemetry = false);

  /// The report finish() writes; the bench adds its tables and scalars.
  telemetry::BenchReport& report() { return report_; }

  /// Take one capture, in point order: merge its verdict, queue its
  /// recording and add its counters and series to the report as `run`.
  void add(Capture capture, const std::string& run = {});

  /// Print the liveness and flight summaries, add their scalars, write
  /// --json (its path goes to stderr, so stdout does not depend on it) and
  /// return the exit code: 1 if `ok` is false, the flight check failed or
  /// a file could not be written, else 0.
  int finish(bool ok = true);

 private:
  bool finish_flight();

  std::string name_;
  Args args_;
  std::optional<std::string> json_;
  unsigned jobs_ = 0;
  bool watchdog_ = false;
  bool flight_ = false;
  std::optional<std::string> flight_out_;
  std::optional<std::string> flight_trace_;

  telemetry::BenchReport report_;
  health::LivenessVerdict liveness_;
  std::vector<flight::Recording> recordings_;
};

}  // namespace itb::core
