#!/usr/bin/env python3
"""The px benchmark: time to solution of the paper's two workload families.

    python3 pxbench/run.py --workload heat1d_dist --seed 1 --seconds 20 --trace 0
    python3 pxbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source tree. It builds pxbench/workloads.cpp together
with the px libraries (CMake, Release, into $CARGO_TARGET_DIR or
.bench_build/), runs one workload closed-loop for --seconds (split into a
few processes whose samples are pooled; see PROCESSES), checks every solve
against an oracle, and prints:

* one `host` line with the host fingerprint and the run's steal share,
* one line per metric with its unit and sample count (failed_frac too),
* as the last line, {"correct", "attempted", "failed", "metrics"} with the
  end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
  (--trace 1). The metric names and units are the ones BENCHMARK.json lists.

A traced run also writes .bench_out/trace-<workload>.json (Chrome trace of
the benchmark's spans plus the px::trace task slices); every run writes
.bench_out/report-<workload>-seed<seed>-trace<t>.json with the raw samples.
The exit code is 0 only when every solve matched its oracle, and for a
traced run when the trace dropped nothing and its spans explain the solve
within RESIDUAL_BOUND. See pxbench/spec.json for the workloads' parameters
and the layer predictions.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("heat1d_dist", "heat1d_skewed", "jacobi2d_vns")
# Workload processes an untraced run is split into, each measuring an equal
# share of --seconds; their samples are pooled. A heat solve's speed carries
# an offset that holds for the life of a process (on a 4-vCPU Xeon with no
# steal, consecutive 3 s heat1d_dist processes of one seed read p10 from 18.9
# to 22.5 ms), which one process per run would show as run-to-run spread.
# A jacobi2d_vns process spends about 17 s in its oracle and two set-ups,
# so it gets two processes of two solves each.
PROCESSES = {"heat1d_dist": 4, "heat1d_skewed": 4, "jacobi2d_vns": 2}
# Largest share of a traced solve its child spans may leave unexplained.
RESIDUAL_BOUND = 0.05
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print("pxbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = (ROOT / target / "pxbench").resolve()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(bdir), "-j", jobs]):
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr).returncode
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if rc != 0:
            fail("build failed: " + " ".join(cmd))
    return bdir


def parse_size(text):
    m = re.fullmatch(r"(\d+)([KMG]?)", text.strip())
    if not m:
        return 0
    return int(m.group(1)) * {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[m.group(2)]


def llc_bytes():
    """Sum of the distinct last-level caches of the CPUs this process may use."""
    caches = {}
    for cpu in os.sched_getaffinity(0):
        best = None
        for idx in Path(f"/sys/devices/system/cpu/cpu{cpu}/cache").glob("index*"):
            try:
                if (idx / "type").read_text().strip() == "Instruction":
                    continue
                level = int((idx / "level").read_text())
            except (OSError, ValueError):
                continue
            if best is None or level > best[0]:
                best = (level, idx)
        if best:
            shared = (best[1] / "shared_cpu_list").read_text().strip()
            caches[(best[0], shared)] = parse_size((best[1] / "size").read_text())
    return sum(caches.values())


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith(("model name", "Model name", "CPU part")):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cpu_list(cpus):
    cpus, ranges = sorted(cpus), []
    for c in cpus:
        if ranges and c == ranges[-1][1] + 1:
            ranges[-1][1] = c
        else:
            ranges.append([c, c])
    return ",".join(f"{a}-{b}" if a != b else str(a) for a, b in ranges)


def source_digest():
    """sha256 over the sources the benchmark builds: a revision id that also
    works in a tree that is not a git checkout."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*")) + sorted(HERE.rglob("*"))
    for f in files:
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def build_info(bdir):
    info = {"build_type": None, "compiler": None, "flags": None}
    cache = bdir / "CMakeCache.txt"
    if cache.exists():
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(), re.M)
        info["build_type"] = m.group(1) if m else None
    try:
        entries = json.loads((bdir / "compile_commands.json").read_text())
        cmd = next(e["command"] for e in entries if e["file"].endswith("workloads.cpp")).split()
        version = subprocess.run([cmd[0], "--version"], capture_output=True, text=True)
        info["compiler"] = version.stdout.splitlines()[0] if version.stdout else cmd[0]
        skip = False
        flags = []
        for tok in cmd[1:]:
            if skip:
                skip = False
            elif tok == "-o":
                skip = True
            elif tok.startswith("-") and tok != "-c" and not tok.startswith("-I"):
                flags.append(tok)
        info["flags"] = " ".join(flags)
    except (OSError, ValueError, StopIteration, IndexError):
        pass
    return info


def host_fingerprint(bdir, llc):
    return dict({
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": cpu_list(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "px_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("PX_")},
    }, **build_info(bdir))


def read_stat():
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def run_program(bdir, workload, args, llc, out_dir, seconds, timeout):
    cmd = [str(bdir / "pxbench_workloads"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace), "--out", str(out_dir),
           "--llc-bytes", str(llc)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        fail(f"workload program did not finish within {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"workload program exited with {proc.returncode} without a result", proc.returncode or 2)
    return raw, proc.returncode


def run_processes(bdir, workload, args, llc, out_dir):
    """Runs the workload program in PROCESSES[workload] processes (one for a
    traced run) and returns (pooled record, worst exit code, steal share)."""
    count = 1 if args.trace else PROCESSES[workload]
    deadline = time.monotonic() + DRIVER_TIMEOUT_S
    steal0, total0 = read_stat()
    raws, rc = [], 0
    for _ in range(count):
        raw, code = run_program(bdir, workload, args, llc, out_dir, args.seconds / count,
                                deadline - time.monotonic())
        raws.append(raw)
        rc = max(rc, code)
    steal1, total1 = read_stat()
    return metrics.pool(raws), rc, metrics.ratio(steal1 - steal0, total1 - total0)


def run_workload(workload, args, spec, bdir, llc, out_dir):
    """Runs one workload, prints its host line, metric table and result line;
    returns whether it was correct."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_frac"] = "ratio"
    declared = spec["per_layer" if args.trace else "end_to_end"]
    host = host_fingerprint(bdir, llc)
    raw, rc, steal = run_processes(bdir, workload, args, llc, out_dir)
    host["steal_frac"] = steal
    print("host " + json.dumps(host, sort_keys=True))

    def row(name, value, samples):
        print(f"{workload:14s} {name:38s} {value:14.6g} {units[name]:13s} n={samples}")

    problems = []
    if rc != 0 or raw["total_failed"] != 0:
        problems.append(f"{raw['total_failed']} solve(s) failed their oracle check (workload program exit {rc})")
    e2e = metrics.end_to_end(raw)
    for name, (value, n) in e2e.items():
        if name == "solve_s.p10":
            n = f"{n}, {metrics.samples_at_or_below(n, 10)} at or below"
        elif name == "solve_s.p90":
            window = n if n < metrics.P90_WINDOW else metrics.P90_WINDOW
            n = (f"{n}, median of {max(n // metrics.P90_WINDOW, 1)} window(s) with "
                 f"{metrics.samples_beyond(window, 90)} beyond in each")
        row(name, value, n)
    p = raw["params"]
    if "array_mib" in p:
        print(f"{workload:14s} array {p['array_mib']:.1f} MiB per field, LLC "
              f"{llc / (1 << 20):.1f} MiB ({p['array_mib'] * (1 << 20) / llc if llc else 0:.1f}x)")

    if args.trace:
        values = metrics.per_layer(raw, len(os.sched_getaffinity(0)), steal)
        t = raw["traced"]
        samples = {
            "solve_s.p50": f"{len(raw['solve_s'])} untraced solves",
            "solve_s.p90": f"{len(raw['solve_s'])} untraced solves",
            "dist.domain_ctor_ms": f"{len(raw.get('domain_ctor_ms', []))} set-ups",
            "dist.domain_dtor_ms": f"{len(raw.get('domain_dtor_ms', []))} set-ups",
            "host.steal_frac": "whole run",
        }
        for name in sorted(values):
            row(name, values[name], samples.get(name, f"{len(t['solve_s'])} traced solves"))
        if t["trace_dropped"] != 0:
            problems.append(f"trace dropped {t['trace_dropped']} slices")
        if values["trace.residual_frac"] > RESIDUAL_BOUND:
            problems.append(f"spans leave {values['trace.residual_frac']:.3f} of the solve "
                            f"unexplained (bound {RESIDUAL_BOUND})")
    else:
        values = {name: v for name, (v, _) in e2e.items()}

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail("metrics not computed: " + ", ".join(missing))
    result = {
        "correct": not problems,
        "attempted": raw["total_attempted"],
        "failed": raw["total_failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    report = out_dir / f"report-{workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"host": host, "raw": raw, "result": result,
                                  "problems": problems}, indent=1))
    for msg in problems:
        print("pxbench: FAIL " + msg, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return result["correct"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn (one result line each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")

    bdir = build()
    llc = llc_bytes()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = [run_workload(w, args, spec, bdir, llc, out_dir) for w in workloads]
    sys.exit(0 if all(correct) else 1)


if __name__ == "__main__":
    main()
