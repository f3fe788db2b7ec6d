"""Arithmetic that turns the workload program's raw samples into the named metrics.

Every rule a metric depends on lives here, so that pxbench/test_metrics.py
can check it without running a workload:

* percentiles are nearest-rank, and a tail percentile is reported with the
  number of samples beyond it (the rule: at least ten);
* a ratio whose base is zero reads 0, never NaN;
* per-worker scheduler counters are summed across every locality's
  scheduler;
* a span's self time is its duration minus the union of its children's
  intervals clipped to it, and the trace residual is the solve spans' summed
  self time over their summed duration.
"""

import math
import re
import statistics

# /px/scheduler{<instance>/worker#<n>}/<name>
_WORKER_PATH = re.compile(r"^/px/scheduler\{([^}/]+)/worker#(\d+)\}/([A-Za-z0-9_]+)$")


def percentile(samples, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sequence."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def samples_at_or_below(n, q):
    """How many of n samples lie at or below the nearest-rank q-th percentile
    (at least ten once n >= 100 for q = 10)."""
    return max(math.ceil(q / 100.0 * n), 1)


def min_samples_for(q, beyond=10):
    """Smallest sample count whose nearest-rank q-th percentile has at least
    `beyond` samples above it."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


# Solves per window of solve_s.p90: the fewest with ten samples beyond p90.
P90_WINDOW = min_samples_for(90)


def windowed_percentile(samples, q, window):
    """Median over consecutive windows of `window` samples (in run order) of
    each window's nearest-rank q-th percentile. A trailing partial window
    joins the one before it; fewer than `window` samples form one window.
    A host stall of a few seconds then moves one window, not the figure."""
    if not samples:
        raise ValueError("percentile of no samples")
    count = max(len(samples) // window, 1)
    bounds = [i * window for i in range(count)] + [len(samples)]
    return median([percentile(samples[bounds[i]:bounds[i + 1]], q) for i in range(count)])


def median(samples):
    return statistics.median(samples)


def ratio(num, base):
    """num / base, reading 0 when the base is 0 (nothing to divide among)."""
    return num / base if base else 0.0


def sum_worker_counters(counters):
    """Sums /px/scheduler{inst/worker#N}/<name> over every scheduler instance
    and worker. Returns ({name: total}, number of distinct workers)."""
    totals = {}
    workers = set()
    for path, value in counters.items():
        m = _WORKER_PATH.match(path)
        if not m:
            continue
        inst, idx, name = m.groups()
        workers.add((inst, int(idx)))
        totals[name] = totals.get(name, 0) + value
    return totals, len(workers)


def sum_instance_counters(counters, family, name):
    """Sums /px/<family>{<instance>}/<name> over every instance."""
    prefix = "/px/" + family + "{"
    suffix = "}/" + name
    return sum(v for p, v in counters.items()
               if p.startswith(prefix) and p.endswith(suffix) and "/worker#" not in p)


def covered(intervals, lo, hi):
    """Length of the union of [b, e) intervals clipped to [lo, hi)."""
    clipped = sorted((max(b, lo), min(e, hi)) for b, e in intervals if min(e, hi) > max(b, lo))
    total = 0
    cur_b = cur_e = None
    for b, e in clipped:
        if cur_e is None or b > cur_e:
            if cur_e is not None:
                total += cur_e - cur_b
            cur_b, cur_e = b, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_b
    return total


def self_time(span, children):
    """span = (begin, end); children = [(begin, end), ...]."""
    b, e = span
    return (e - b) - covered(children, b, e)


def residual_frac(spans, root="solve"):
    """spans: [(name, begin, end, parent_index, solve_id), ...] as the workload
    program logs them. Sum of root spans' self time over sum of their durations."""
    children = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    total = self_total = 0
    for i, s in enumerate(spans):
        if s[0] != root:
            continue
        total += s[2] - s[1]
        self_total += self_time((s[1], s[2]), children.get(i, []))
    return ratio(self_total, total)


def span_seconds(spans, name):
    """Durations in seconds of every span with this name."""
    return [(s[2] - s[1]) * 1e-9 for s in spans if s[0] == name]


def histogram_percentile(hist, q):
    """Nearest-rank percentile of a {value: count} histogram."""
    items = sorted((float(k), n) for k, n in hist.items())
    n = sum(c for _, c in items)
    if n == 0:
        return 0.0
    rank = max(math.ceil(q / 100.0 * n), 1)
    seen = 0
    for value, count in items:
        seen += count
        if seen >= rank:
            return value
    return items[-1][0]


# Keys of a workload program's record that pool() sums over processes.
_COUNTS = ("attempted", "failed", "total_attempted", "total_failed", "oracle_s", "loop_wall_s")


def pool(raws):
    """One record from the untraced records of the processes a run is split
    into: every sample list is concatenated in process order, the counts are
    summed, peak RSS is the median over the processes and everything else
    (parameters, work per solve) comes from the first."""
    if len(raws) == 1:
        return raws[0]
    if any("traced" in r for r in raws):
        raise ValueError("a traced run is one process")
    out = dict(raws[0])
    for key, value in raws[0].items():
        if isinstance(value, list):
            out[key] = [v for r in raws for v in r[key]]
    for key in _COUNTS:
        out[key] = sum(r[key] for r in raws)
    out["peak_rss_kib"] = median([r["peak_rss_kib"] for r in raws])
    out["processes"] = len(raws)
    return out


def end_to_end(raw):
    """The end-to-end metrics of an untraced loop: {name: (value, samples)}."""
    solves = raw["solve_s"]
    if not solves:
        raise ValueError("no completed solve")
    p10 = percentile(solves, 10)
    return {
        "setup_s": (median(raw["setup_s"]), len(raw["setup_s"])),
        "solve_s.p10": (p10, len(solves)),
        "solve_s.p50": (median(solves), len(solves)),
        "solve_s.p90": (windowed_percentile(solves, 90, P90_WINDOW), len(solves)),
        "mlups": (ratio(raw["lattice_updates_per_solve"], p10) / 1e6, len(solves)),
        "failed_frac": (ratio(raw["failed"], raw["attempted"]), raw["attempted"]),
        "peak_rss_mb": (raw["peak_rss_kib"] / 1024.0, raw.get("processes", 1)),
    }


def per_layer(raw, nproc, steal_frac):
    """The per-layer metrics of a traced run: {name: value}. Layers a workload
    does not cross read 0."""
    t = raw["traced"]
    c = t["counters"]
    g = lambda path: c.get(path, 0)
    solves = len(t["solve_s"])
    steps = solves * raw["steps_per_solve"]
    solve_wall_ns = sum(t["solve_s"]) * 1e9
    w, workers = sum_worker_counters(c)
    spans = t["spans"]
    messages = g("/px/parcel/messages_sent")
    frames = g("/px/net/frames_on_wire")
    arms = g("/px/timer/callbacks_scheduled")
    hits, misses = g("/px/agas/cache_hits"), g("/px/agas/cache_misses")
    migrations, aborts = g("/px/agas/migrations"), g("/px/agas/migration_aborts")
    med = lambda xs: median(xs) if xs else 0.0

    m = {
        "runtime.busy_frac": ratio(w.get("busy_ns", 0), workers * solve_wall_ns),
        "runtime.tasks_per_step": ratio(w.get("tasks_executed", 0), steps),
        "runtime.parks_per_step": ratio(w.get("parks", 0), steps),
        "runtime.steal_success_frac": ratio(
            w.get("steals", 0), w.get("steals", 0) + w.get("failed_steal_rounds", 0)),
        "runtime.task_pool_miss_frac": ratio(
            w.get("task_pool_misses", 0),
            w.get("task_pool_hits", 0) + w.get("task_pool_misses", 0)),
        "runtime.stack_pool_miss_frac": ratio(
            sum_instance_counters(c, "stacks", "pool_misses"),
            sum_instance_counters(c, "stacks", "pool_hits")
            + sum_instance_counters(c, "stacks", "pool_misses")),
        "runtime.task_slice_us.p50": histogram_percentile(t["slice_us_hist"], 50),
        "runtime.task_slice_us.p99": histogram_percentile(t["slice_us_hist"], 99),
        "parcel.messages_per_step": ratio(messages, steps),
        "parcel.bytes_per_step": ratio(g("/px/parcel/bytes_sent"), steps),
        "resilience.checkpoint_bytes_per_solve": ratio(
            g("/px/resilience/checkpoint_bytes"), solves),
        "net.frames_per_step": ratio(frames, steps),
        "net.parcels_per_frame": ratio(messages, frames),
        "net.acks_per_frame": ratio(g("/px/net/acks"), frames),
        "net.rto_arms_per_parcel": ratio(arms, messages),
        "net.rto_cancel_frac": ratio(g("/px/timer/callbacks_cancelled"), arms),
        "net.retransmits": float(g("/px/net/retransmits")),
        "net.modeled_ms_per_solve": ratio(g("/px/net/modeled_ns") / 1e6, solves),
        "dist.quiesce_ms": 1e3 * med(span_seconds(spans, "dist.quiesce")),
        "dist.domain_ctor_ms": med(raw.get("domain_ctor_ms", [])),
        "dist.domain_dtor_ms": med(raw.get("domain_dtor_ms", [])),
        "agas.cache_hit_frac": ratio(hits, hits + misses),
        "agas.resolve_misses_per_step": ratio(g("/px/agas/resolve_misses"), steps),
        "agas.forwards_per_solve": ratio(g("/px/agas/forwards"), solves),
        "agas.parked_per_solve": ratio(g("/px/agas/parked"), solves),
        "agas.migrations_per_solve": ratio(migrations, solves),
        "agas.migration_abort_frac": ratio(aborts, migrations + aborts),
        "agas.imbalance_final": med(raw.get("imbalance_final", [])),
        "solve_s.p50": median(raw["solve_s"]),
        "solve_s.p90": windowed_percentile(raw["solve_s"], 90, P90_WINDOW),
        "trace.overhead_frac": ratio(med(t["solve_s"]), med(raw["solve_s"])) - 1.0,
        "trace.residual_frac": residual_frac(spans),
        "trace.dropped": float(t["trace_dropped"]),
        "process.cpu_util": ratio(t["cpu_s"], t["wall_s"] * nproc),
        "host.steal_frac": steal_frac,
    }
    m.update(stencil_layers(raw))
    return m


def stencil_layers(raw):
    """The stencil/simd rows: phase medians of the traced jacobi2d_vns solves
    and the bandwidth figures derived from computed byte counts."""
    t = raw["traced"]
    names = ["stencil.alloc_s", "simd.encode_s", "stencil.sweep_s", "simd.decode_s",
             "simd.encode_gbs", "simd.decode_gbs", "stencil.sweep_glups",
             "stencil.sweep_glups.seq", "arch.stream_copy_gbs",
             "stencil.sweep_roofline_frac", "stencil.bytes_per_lup"]
    p = raw["params"]
    if "ny" not in p:
        return dict.fromkeys(names, 0.0)
    cells = p["nx"] * p["ny"]
    cell_bytes = p["cell_bytes"]
    phase = {n: median(span_seconds(t["spans"], n[:-2])) for n in names[:4]}
    # Computed, not measured: encode reads the scalar field and writes a pack
    # field, twice; decode reads one pack field and writes the scalar copy; a
    # sweep reads and writes each cell once (neighbour rows come from cache).
    bytes_per_lup = 2 * cell_bytes
    glups = ratio(cells * p["steps"], phase["stencil.sweep_s"]) / 1e9
    stream = t["after"].get("arch.stream_copy_gbs", 0.0)
    return dict(phase, **{
        "simd.encode_gbs": ratio(2 * 2 * cell_bytes * cells, phase["simd.encode_s"]) / 1e9,
        "simd.decode_gbs": ratio(2 * cell_bytes * cells, phase["simd.decode_s"]) / 1e9,
        "stencil.sweep_glups": glups,
        "stencil.sweep_glups.seq": t["after"].get("stencil.sweep_glups.seq", 0.0),
        "arch.stream_copy_gbs": stream,
        "stencil.sweep_roofline_frac": ratio(glups * bytes_per_lup, stream),
        "stencil.bytes_per_lup": float(bytes_per_lup),
    })
