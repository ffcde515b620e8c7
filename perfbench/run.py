#!/usr/bin/env python3
"""Build and run the dovado benchmark (see perfbench/README.md).

One workload:

    python3 perfbench/run.py --workload fifo-nwm --seed 1 --seconds 10 --trace 0

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics named in
BENCHMARK.json, --trace 1 the per-layer metrics from a separate traced run.
A readable table of everything measured goes to stderr.

Every workload, untraced then traced, with the full tables:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

The benchmark's own self-tests:

    python3 perfbench/run.py --selftest

The harness is built from the repository's sources with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run
in a checkout compiles it.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fifo-nwm", "exact-sweep", "serve-mix")
HARNESS_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the harness; returns its path."""
    for needed in ("src/CMakeLists.txt", "rtl/cv32e40p_fifo.sv"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError(f"no dovado sources: {needed} is missing under {ROOT}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def work_dir():
    """Scratch space for stores, journals, sockets and traces. Relative to
    the checkout root when possible: Unix socket paths are short."""
    path = os.path.join(build_dir(), "work")
    os.makedirs(path, exist_ok=True)
    rel = os.path.relpath(path, ROOT)
    return path if rel.startswith("..") else rel


def harness_env():
    """A fixed glibc arena count: with the default (8 per core) the peak
    resident set varies by ~10% with how threads happen to map to arenas."""
    env = dict(os.environ)
    env["MALLOC_ARENA_MAX"] = "4"
    return env


def steal_ticks():
    """Clock ticks the hypervisor has stolen from all CPUs so far, or None."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def harness(binary, args):
    """Run the harness; returns its report (the last stdout line), with a
    note on how much CPU time the hypervisor stole meanwhile: on a shared
    host, latencies inflate severalfold once that passes a few percent."""
    started, stolen = time.monotonic(), steal_ticks()
    proc = subprocess.run([binary, "--rtl", os.path.join(ROOT, "rtl"), "--work", work_dir()]
                          + args, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=HARNESS_TIMEOUT_S, env=harness_env())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"harness printed no report (exit {proc.returncode})")
    report = json.loads(lines[-1])
    elapsed, now_stolen = time.monotonic() - started, steal_ticks()
    if stolen is not None and now_stolen is not None:
        cpu_s = elapsed * (os.cpu_count() or 1)
        share = (now_stolen - stolen) / os.sysconf("SC_CLK_TCK") / cpu_s
        report["notes"].append(f"hypervisor steal during the run: {100 * share:.1f}% of CPU time")
    return report


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def render(report):
    """Readable tables of one report, for stderr."""
    rows = [f"== {report['workload']} seed {report['seed']} "
            f"({'traced' if report['trace'] else 'untraced'}) digest {report['digest']}"]
    attempted, failed = report["attempted"], report["failed"]
    ratio = failed / attempted if attempted else 1.0
    rows.append(f"  {'error_ratio':28} {ratio:14.6g} {'ratio':6} n={attempted}  "
                "answers not correct / answers checked")
    for section in ("end_to_end", "per_layer"):
        for name, m in sorted(report[section].items()):
            rows.append(f"  {name:28} {m['value']:14.6g} {m['unit']:6} n={m['samples']:<6} "
                        f"{m.get('note', '')}")
    for failure in report["failures"]:
        rows.append(f"  FAILED: {failure}")
    for note in report["notes"]:
        rows.append(f"  note: {note}")
    return "\n".join(rows)


def result_line(report, spec_metrics):
    """The result object: only the metrics BENCHMARK.json names. A run that
    failed (the program threw, an answer was wrong) may lack some; they are
    reported as null and the line says correct=false."""
    section = report["per_layer"] if report["trace"] else report["end_to_end"]
    missing = [m["name"] for m in spec_metrics if m["name"] not in section]
    if missing and report["failed"] == 0:
        raise RuntimeError(f"harness did not report {', '.join(missing)}")
    metrics = {}
    for m in spec_metrics:
        measured = section.get(m["name"])
        metrics[m["name"]] = ({"value": measured["value"], "unit": measured["unit"]} if measured
                              else {"value": None, "unit": m["unit"]})
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def run_one(args):
    spec = benchmark_spec()
    key = "per_layer" if args.trace == 1 else "end_to_end"
    binary = build()
    report = harness(binary, ["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)])
    log(render(report))
    line = result_line(report, spec[key])
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def run_all(args):
    binary = build()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            started = time.monotonic()
            report = harness(binary, ["--workload", workload, "--seed", str(args.seed),
                                      "--seconds", str(args.seconds), "--trace", str(trace)])
            log(render(report))
            log(f"  ({time.monotonic() - started:.1f} s)")
            ok = ok and report["correct"]
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--selftest", action="store_true", help="run the benchmark's self-tests")
    args = parser.parse_args()
    try:
        if args.seconds is None:
            args.seconds = benchmark_spec()["run_seconds"]
        if args.selftest:
            return subprocess.run([build(), "--selftest", "--rtl", os.path.join(ROOT, "rtl"),
                                   "--work", work_dir()], cwd=ROOT, env=harness_env(),
                                  timeout=HARNESS_TIMEOUT_S).returncode
        if args.all:
            return run_all(args)
        if not args.workload:
            parser.error("--workload, --all or --selftest is required")
        return run_one(args)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
