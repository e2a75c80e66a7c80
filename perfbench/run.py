#!/usr/bin/env python3
"""Repository benchmark: build the benchmark from source, run one workload, check it.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests [--seeds 0-63]

The first form configures and builds perfbench/ (a CMake project that
compiles ../src) into .bench_build/perfbench, runs perfbench, checks
the simulated results against perfbench/expected_digests.json, writes the
full result with a host record to .bench_build/results/, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits 0 only when every output check passed. --record-digests rewrites
expected_digests.json from the current sources (do that only in a change
that means to alter the simulated model). See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
DATA_DIR = BUILD_ROOT / "data"
RESULTS_DIR = BUILD_ROOT / "results"
# Compiler and program scratch files stay inside the checkout too.
TMP_DIR = BUILD_ROOT / "tmp"
BINARY = BUILD_DIR / "perfbench"
DIGESTS = BENCH_DIR / "expected_digests.json"
WORKLOADS = ("sim-raw-mixed", "real-staged-pagecache")
SIM_WORKLOADS = WORKLOADS[:1]
RUN_TIMEOUT_S = 170
# Exit code of perfbench when the io_uring backend is not built.
EXIT_NO_URING = 3


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def child_env():
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(TMP_DIR))


def build():
    """Configure (once) and build the binary; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no streamstore sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr, env=child_env())
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=child_env())


def cmake_cache_value(key):
    try:
        for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def source_digest():
    """SHA-256 over the program and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def host_record():
    commit = "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": source_digest(),
        "build_type": cmake_cache_value("CMAKE_BUILD_TYPE"),
        "uring_enabled": cmake_cache_value("SST_HAVE_IO_URING_H") not in ("", "0", "FALSE", "OFF"),
        "kernel": platform.release(),
        "machine": platform.machine(),
    }


def run_binary(workload, seed, seconds, trace):
    """Run perfbench; returns (exit code, parsed last JSON line or None)."""
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", str(DATA_DIR)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=str(ROOT), env=child_env())
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    doc = None
    if lines:
        try:
            doc = json.loads(lines[-1])
        except json.JSONDecodeError:
            doc = None
    return proc.returncode, doc


def load_digests():
    try:
        return json.loads(DIGESTS.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def write_result(name, payload):
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def run(args):
    build()
    code, doc = run_binary(args.workload, args.seed, args.seconds, args.trace)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    if code == EXIT_NO_URING:
        reason = "io_uring backend not available in this build; workload skipped"
        write_result(base + ".json", {"workload": args.workload, "seed": args.seed,
                                      "skipped": reason, "host": host_record()})
        log(reason)
        return EXIT_NO_URING
    if doc is None:
        log(f"perfbench exited {code} without a result")
        return 2

    failures = list(doc.get("failures", []))
    digest_check = "not recorded for this seed"
    if args.workload in SIM_WORKLOADS:
        want = load_digests().get(args.workload, {}).get(str(args.seed))
        got = doc.get("details", {}).get("digest")
        if want is not None:
            if got == want:
                digest_check = "matches"
            else:
                digest_check = f"differs (want {want}, got {got})"
                failures.append("simulated results differ from the recorded digest "
                                f"for seed {args.seed}")
    correct = bool(doc.get("correct")) and not failures
    summary = {
        "correct": correct,
        "attempted": int(doc.get("attempted", 0)),
        "failed": int(doc.get("failed", 0)),
        "metrics": doc.get("metrics", {}),
    }
    write_result(base + ".json", {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": summary, "failures": failures,
        "digest_check": digest_check, "details": doc.get("details", {}),
        "exit_code": code, "host": host_record(),
    })
    for failure in failures:
        log(f"check failed: {failure}")
    print(json.dumps(summary), flush=True)
    return 0 if correct and code == 0 else 1


def record_digests(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    build()
    digests = load_digests()
    for workload in SIM_WORKLOADS:
        table = digests.setdefault(workload, {})
        for seed in seeds:
            code, doc = run_binary(workload, seed, 1, 0)
            if code != 0 or doc is None or "digest" not in doc.get("details", {}):
                raise RuntimeError(f"{workload} seed {seed}: perfbench exited {code}")
            table[str(seed)] = doc["details"]["digest"]
            log(f"{workload} seed {seed}: {table[str(seed)]}")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--seeds", default="0-63")
    args = parser.parse_args()
    try:
        if args.record_digests:
            return record_digests(args.seeds)
        if args.workload is None or args.seed is None or args.seconds is None \
                or args.trace is None:
            parser.error("--workload, --seed, --seconds and --trace are required")
        if args.seed < 0 or args.seconds < 1:
            parser.error("--seed must be >= 0 and --seconds >= 1")
        return run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        log(f"error: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
