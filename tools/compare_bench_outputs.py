#!/usr/bin/env python3
"""Run every bench (and telemetry_demo) from two build trees with the same
flags and compare stdout, stderr, exit codes, JSON reports and artifacts.

usage: compare_bench_outputs.py OLD_BUILD NEW_BUILD WORKDIR [--only SUBSTR]
                                [-j N]

OLD_BUILD/NEW_BUILD are CMake build trees (bench/ and examples/ inside);
WORKDIR receives one directory per case and build. Exit status is 1 when
any case differs.

Each case runs in its own empty directory, so relative output paths are the
same for both builds. Normalisation:
  * the `JSON report written to <path>` line is dropped from stdout and
    stderr (plus the blank line printed just before it on stdout);
  * `sim.allocations_total` counter values are masked in JSON files;
  * engine_throughput / micro_components JSON: only the key sets compare;
  * wall-clock columns/fields of scale_topology and fault_recovery are
    masked.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
from concurrent.futures import ThreadPoolExecutor

SWEEP = ["ablation_port_kinds", "ablation_early_recv", "ablation_buffer_pool",
         "ablation_routing_opts", "motivation_throughput", "ext_applications",
         "ext_reliability", "svc_slo"]
JOBS = ["fig8_itb_overhead", "engine_compare"] + SWEEP
FLIGHT = ["fig7_code_overhead", "fig8_itb_overhead"] + SWEEP

CASES = []
for b in ["fig7_code_overhead", "fig8_itb_overhead", "engine_compare"] + SWEEP:
    CASES += [(b, "default", []), (b, "json", ["--json", "r.json"])]
for b in JOBS:
    CASES += [(b, "jobs1", ["--jobs", "1", "--json", "r.json"]),
              (b, "jobs8", ["--jobs", "8", "--json", "r.json"])]
for b in SWEEP:
    CASES += [(b, "watchdog", ["--watchdog"]),
              (b, "watchdog_json", ["--watchdog", "--json", "r.json"])]
for b in FLIGHT:
    CASES += [(b, "flight", ["--flight", "--flight-out", "f.flt"])]
CASES += [
    ("fig8_itb_overhead", "ci_flight_j1",
     ["--flight", "--flight-out=flight.flt", "--flight-trace=trace.json",
      "--jobs", "1"]),
    ("fig8_itb_overhead", "ci_flight_j8",
     ["--flight", "--flight-out=flight.flt", "--jobs", "8"]),
    ("svc_slo", "ci_j1", ["--jobs", "1", "--watchdog", "--json", "s.json"]),
    ("svc_slo", "ci_j8", ["--jobs", "8", "--watchdog", "--json", "s.json"]),
    ("ext_reliability", "ci", ["--watchdog", "--json", "c.json"]),
    ("scale_topology", "ci_j1", ["--max-hosts", "256", "--jobs", "1",
                                 "--routes-out", "routes.txt", "--json",
                                 "s.json"]),
    ("scale_topology", "ci_j8", ["--max-hosts", "256", "--jobs", "8",
                                 "--routes-out", "routes.txt"]),
    ("scale_topology", "small", ["--max-hosts", "64"]),
    ("scale_topology", "default", []),
    ("scale_topology", "json", ["--json", "r.json"]),
    ("fault_recovery", "ci_j1", ["--max-hosts", "256", "--jobs", "1",
                                 "--routes-out", "routes.txt", "--json",
                                 "f.json"]),
    ("fault_recovery", "ci_j8", ["--max-hosts", "256", "--jobs", "8",
                                 "--routes-out", "routes.txt"]),
    ("fault_recovery", "small", ["--max-hosts", "64", "--no-verify"]),
    ("fault_recovery", "default", []),
    ("fault_recovery", "json", ["--json", "r.json"]),
    ("engine_throughput", "ci", ["--reps", "2", "--events", "200000",
                                 "--json", "e.json"]),
    ("micro_components", "json", ["--benchmark_min_time=0.001",
                                  "--benchmark_filter=BM_EventQueue",
                                  "--json", "m.json"]),
    ("telemetry_demo", "default", []),
    ("telemetry_demo", "json", ["--json", "demo.json"]),
    ("telemetry_demo", "rate", ["2e4"]),
]
TIMING = {"engine_throughput", "micro_components"}


def binary(build, bench):
    sub = "examples" if bench == "telemetry_demo" else "bench"
    return os.path.join(build, sub, bench)


def run(build, tag, case, work):
    bench, name, args = case
    d = os.path.join(work, tag, bench + "." + name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    p = subprocess.run([os.path.abspath(binary(build, bench))] + args, cwd=d,
                       capture_output=True, text=True)
    with open(os.path.join(d, "_stdout"), "w") as f:
        f.write(p.stdout)
    with open(os.path.join(d, "_stderr"), "w") as f:
        f.write(p.stderr)
    with open(os.path.join(d, "_rc"), "w") as f:
        f.write(str(p.returncode))
    return d


JSON_LINE = re.compile(r"^JSON report written to .*$")


def norm_out(text):
    lines = text.split("\n")
    out = []
    for ln in lines:
        if JSON_LINE.match(ln):
            if out and out[-1] == "":
                out.pop()
            continue
        out.append(ln)
    return "\n".join(out)


MASK = re.compile(r'("allocations_total", "kind": "counter", "value": )[0-9]+')
# Wall-clock fields of scale_topology / fault_recovery.
WALL_JSON = re.compile(r'("(?:wall_ms|discover_ms|solve_ms)": )[0-9.e+-]+')
WALL_TEXT = re.compile(r'\|\s+(\d+)\s+[\d.]+ \|\s+[\d.]+\s+[\d.]+ \|')


def keys(obj, prefix=""):
    """Key paths of a JSON document (first element of object lists; the
    host-dependent google-benchmark "context" is not descended into)."""
    if isinstance(obj, dict):
        found = set()
        for k, v in obj.items():
            found.add(prefix + k)
            if isinstance(v, (list, dict)) and k != "context":
                found |= keys(v, prefix + k + ".")
        return found
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        return keys(obj[0], prefix + "[].")
    return set()


def compare(case, a, b):
    bench = case[0]
    problems = []
    rc_a = open(os.path.join(a, "_rc")).read()
    rc_b = open(os.path.join(b, "_rc")).read()
    if rc_a != rc_b:
        problems.append(f"exit code {rc_a} -> {rc_b}")
    if bench not in TIMING:
        for f in ("_stdout", "_stderr"):
            x = WALL_TEXT.sub(r"| \1 X | X X |",
                              norm_out(open(os.path.join(a, f)).read()))
            y = WALL_TEXT.sub(r"| \1 X | X X |",
                              norm_out(open(os.path.join(b, f)).read()))
            if x != y:
                problems.append(f"{f} differs")
    fa = sorted(x for x in os.listdir(a) if not x.startswith("_"))
    fb = sorted(x for x in os.listdir(b) if not x.startswith("_"))
    if fa != fb:
        problems.append(f"artifacts {fa} -> {fb}")
    for f in set(fa) & set(fb):
        x = open(os.path.join(a, f), "rb").read()
        y = open(os.path.join(b, f), "rb").read()
        if f.endswith(".json"):
            if bench in TIMING:
                if keys(json.loads(x)) != keys(json.loads(y)):
                    problems.append(f"{f}: key sets differ")
                continue
            x = WALL_JSON.sub(r"\1X", MASK.sub(r"\1X", x.decode())).encode()
            y = WALL_JSON.sub(r"\1X", MASK.sub(r"\1X", y.decode())).encode()
        if x != y:
            problems.append(f"{f} differs")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("work")
    ap.add_argument("--only", help="run cases whose bench.case contains this")
    ap.add_argument("-j", type=int, default=2, help="cases run in parallel")
    opt = ap.parse_args()
    cases = [c for c in CASES
             if not opt.only or opt.only in c[0] + "." + c[1]]

    def both(c):
        return (c, run(opt.old, "old", c, opt.work),
                run(opt.new, "new", c, opt.work))

    bad = 0
    with ThreadPoolExecutor(opt.j) as ex:
        for c, a, b in ex.map(both, cases):
            problems = compare(c, a, b)
            status = "OK  " if not problems else "DIFF"
            bad += bool(problems)
            print(f"{status} {c[0]} {' '.join(c[2])}  {'; '.join(problems)}",
                  flush=True)
    print(f"{len(cases) - bad}/{len(cases)} cases identical")
    raise SystemExit(1 if bad else 0)


if __name__ == "__main__":
    main()
