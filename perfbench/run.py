#!/usr/bin/env python3
"""The rtl2uspec end-to-end benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (a CMake package on top of
the repository's libraries) in Release under $CARGO_TARGET_DIR (default
.bench_build), then runs one workload for S seconds and prints, as the last
line of standard output, one JSON object with "correct", "attempted",
"failed" and "metrics". --trace 0 prints the end-to-end metrics; --trace 1
the per-layer metrics, and writes a Chrome trace-event file under
<build>/perfbench-run/traces/. The line before the result describes the host
CPU count, the build type and the source revision the numbers belong to.

End-to-end times are scaled to a reference host speed by a probe, a fixed
kernel that a thread of its own times throughout the run, so that a shared
host's drifting speed cancels out of them as far as the probe meets it too;
the traced run reports them unscaled as raw.*.

Workloads (why each was chosen is next to its definition in src/):
  synth_cold_seq   cold synthesis of the formal multi-V-scale at --jobs 1
  synth_cold_par   the same at --jobs 2
  litmus_campaign  check::runCampaign at jobs 2 on the synthesized model
  serve_warm       in-process daemon, closed loop of 2 clients
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("synth_cold_seq", "synth_cold_par", "litmus_campaign", "serve_warm")
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target


def build(bdir):
    """Configure once, then an incremental build of the benchmark only."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", str(bdir), "--target", "r2u_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def fixed_layout():
    """In the child before exec: turn address-space randomization off, so
    that every run lays out heap, stacks and libraries alike. With it on,
    the ~2 ms synthesis set-up took one of several speeds per process (1.6
    to 2.9 ms); off, runs agree within a few percent. Where personality(2)
    is refused, the run keeps randomization and says so."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current == -1 or libc.personality(current | ADDR_NO_RANDOMIZE) == -1:
        os.write(2, b"perfbench: address randomization stays on\n")


def cache_value(bdir, key):
    for line in (bdir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the numbers depend on (the benchmark may
    run from a checkout that is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "designs", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--conflict-budget", type=int,
                    help="per-SVA conflict budget (self-tests force "
                         "undetermined SVAs with 0)")
    args = ap.parse_args()

    bdir = build_dir() / "perfbench"
    if not build(bdir):
        log("build failed")
        return 2
    binary = bdir / "r2u_perfbench"

    context = {
        "host_cpus": os.cpu_count(),
        "build_type": cache_value(bdir, "CMAKE_BUILD_TYPE"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--root", str(ROOT),
           "--work-dir", str(build_dir() / "perfbench-run"),
           "--context", json.dumps(context, sort_keys=True)]
    if args.conflict_budget is not None:
        cmd += ["--conflict-budget", str(args.conflict_budget)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, preexec_fn=fixed_layout)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
