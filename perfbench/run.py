#!/usr/bin/env python3
"""Repository benchmark: build the perfbench driver from source and run it.

Contract mode (what BENCHMARK.json's "command" runs):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the simulator libraries and the driver into .bench_build/perfbench
(CMake, first run only; later runs are an up-to-date check), runs one
workload and prints the driver's output. The last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}. The metric names are
checked against BENCHMARK.json on every run.

Convenience modes:

    --all [--seed N] [--seconds S]   every workload, untraced then traced,
                                     one table of every metric and unit
    --smoke                          reduced fabrics and windows: every
                                     metric name and every check in seconds
    --regime-check                   the held-out seed reproduces each
                                     workload's regime (see README.md)
    --spread --workload W [--seeds 1-10] [--seconds S]
                                     the acceptance statistic: per end-to-end
                                     metric, (q3 - q1) / median over seeds,
                                     against the bound in BENCHMARK.json

Default workload seed: 1. Held-out seed: 20011 (only the regime check runs it).
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
DEFAULT_SEED = 1
HELD_OUT_SEED = 20011
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if not shutil.which("cmake"):
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def provenance_args():
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for f in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return ["--git-sha", sha, "--source-digest", digest.hexdigest()[:16]]


def check_names(result, trace, bench):
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in bench[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metrics differ from BENCHMARK.json {key}: missing {missing}, "
             f"extra {extra}, unit mismatch {units}", 1)


def run_driver(workload, seed, seconds, trace, smoke=False, echo=True):
    """One driver invocation; returns (exit code, parsed result or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    cmd += provenance_args()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return proc.returncode, result


def contract(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {names}")
    build()
    code, result = run_driver(args.workload, args.seed, args.seconds,
                              args.trace)
    if code != 0 or result is None:
        sys.exit(code or 1)
    check_names(result, args.trace, bench)


def run_all(args, bench):
    build()
    rows = {}
    ok = True
    for w in bench["workloads"]:
        for trace in (0, 1):
            code, result = run_driver(w["name"], args.seed, args.seconds,
                                      trace, echo=False)
            if code != 0 or result is None:
                print(f"{w['name']} trace {trace}: FAILED (exit {code})")
                ok = False
                continue
            check_names(result, trace, bench)
            for name, m in result["metrics"].items():
                rows.setdefault((trace, name), {})[w["name"]] = m
    wl = [w["name"] for w in bench["workloads"]]
    print(f"seed {args.seed}; end-to-end from untraced runs, per-layer "
          f"from the traced run")
    print(f"{'metric':34} {'unit':10} " + " ".join(f"{n:>20}" for n in wl))
    for (trace, name), per in rows.items():
        unit = next(iter(per.values()))["unit"]
        cells = " ".join(f"{per[n]['value']:>20.6g}" if n in per
                         else f"{'-':>20}" for n in wl)
        print(f"{name:34} {unit:10} {cells}")
    sys.exit(0 if ok else 1)


def smoke(bench):
    build()
    for w in bench["workloads"]:
        for trace in (0, 1):
            code, result = run_driver(w["name"], DEFAULT_SEED, 1, trace,
                                      smoke=True, echo=False)
            if code != 0 or result is None or not result["correct"]:
                fail(f"smoke {w['name']} trace {trace}: exit {code}", 1)
            check_names(result, trace, bench)
            print(f"smoke {w['name']} trace {trace}: ok, "
                  f"{len(result['metrics'])} metrics, "
                  f"attempted {result['attempted']}")


def regime_check(bench):
    """The held-out seed must land each workload in the regime it was chosen
    for: ITB forwarding on cow256, no ITB forwarding on the fat tree (and the
    routing funnel while it exists), recovery rounds under faults."""
    build()
    per = {}
    for w in bench["workloads"]:
        code, result = run_driver(w["name"], HELD_OUT_SEED, 1, 1, echo=False)
        if code != 0 or result is None:
            fail(f"regime run {w['name']} failed (exit {code})", 1)
        per[w["name"]] = {k: v["value"] for k, v in result["metrics"].items()}
    cow, ft, svc = (per["cow256_itb_64B"], per["ft16_uniform_512B"],
                    per["cow32_svc_faults"])
    checks = [
        ("cow256 forwards through ITBs (> 0.5 per message)",
         cow["nic.itb_forwarded_per_msg"] > 0.5),
        ("cow256 runs below the knee (no failed message)",
         cow["failed_frac"] == 0),
        ("ft16 bypasses the ITB path", ft["nic.itb_forwarded_per_msg"] == 0),
        ("cow32 faults trigger recovery rounds", svc["recovery.rounds"] > 0),
        ("cow32 recovery verifies clean", svc["recovery.verify_fallbacks"] == 0),
    ]
    funnel = (ft["routing.peak_channel_routes"] >
              4 * ft["routing.channel_routes_lb"])
    print(f"ft16 routing funnel present: {funnel} (peak channel "
          f"{ft['routing.peak_channel_routes']:.0f} routes vs lower bound "
          f"{ft['routing.channel_routes_lb']:.0f})")
    if funnel:
        # While the funnel exists the fabric must show it in its outcomes.
        checks.append(("ft16 funnel visible: > 100 us of wormhole queueing "
                       "per journey", ft["stage.queueing_us"] > 100))
    bad = False
    for what, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        bad |= not ok
    sys.exit(1 if bad else 0)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(args, bench):
    build()
    values = {}
    for seed in parse_seeds(args.seeds):
        code, result = run_driver(args.workload, seed, args.seconds, 0,
                                  echo=False)
        if code != 0 or result is None:
            fail(f"seed {seed} failed (exit {code})", 1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        rel = (q[2] - q[0]) / med if med else float("inf")
        flag = "ok" if rel < bounds[name] / 3 else (
            "WIDE" if rel > bounds[name] else "over 1/3 bound")
        print(f"{name:26} median {med:14.6g}  iqr/median {rel:8.4f}  "
              f"bound {bounds[name]:5.2f}  {flag}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--all", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--regime-check", action="store_true")
    p.add_argument("--spread", action="store_true")
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()
    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.smoke:
        smoke(bench)
    elif args.regime_check:
        regime_check(bench)
    elif args.all:
        run_all(args, bench)
    elif args.spread:
        if not args.workload:
            fail("--spread needs --workload")
        spread(args, bench)
    else:
        if args.workload is None or args.trace is None:
            fail("--workload and --trace are required (or a mode flag)")
        contract(args, bench)


if __name__ == "__main__":
    main()
