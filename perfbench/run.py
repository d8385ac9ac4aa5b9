"""knotzeta benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload verify|polys|queries --seed N \
        --seconds S --trace 0|1

The package is imported from the `src/` beside this directory, so nothing
needs installing.  With `--trace 0` the run times whole rounds of the
workload for about S seconds and reports the end-to-end metrics, with times
scaled to a reference speed of the host by the probe of `probe.py`; with
`--trace 1` it times untraced rounds for S/2 seconds, then one traced round
(round 0's inputs, after an untraced repeat of them), and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the environment and the details behind the metrics (raw times among
them).  Scratch files go to `.perfbench/` under the root.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 11

sys.path.insert(0, str(BENCH))

from probe import Probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- environment ----------------------------------------------------------------


def git_commit(root):
    """The checked-out commit, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    pkg = root / "src" / "knotzeta"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".knot", ".json")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "git_commit": git_commit(ROOT),
            "source_sha256": source_digest(ROOT), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


# -- measurement ----------------------------------------------------------------


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile with at least
    ten samples above it, or the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def timed_setup(workload, setup_times):
    start = time.perf_counter()
    workload.setup()
    setup_times.append((start, time.perf_counter() - start))
    gc.collect()  # free the replaced modules now, so peak RSS does not follow GC timing


def run_rounds(workload, seconds, setup_times=None, probe=None):
    """Whole rounds, started until their time adds up to `seconds`; at least one.

    With `probe`, round times are counted scaled to its reference speed, so
    that a run holds the same number of rounds in fast and slow phases of
    the host.  With `setup_times`, the set-up is timed again between rounds,
    spread evenly over the run up to SETUP_REPEATS times, so that its median
    samples the same states of a shared machine as the rounds do.
    """
    rounds = []
    elapsed = 0.0
    while not rounds or elapsed < seconds:
        rnd = workload.run_round(len(rounds))
        workload.check(rnd)
        rounds.append(rnd)
        elapsed += rnd.wall * (probe.scale(rnd.start, rnd.end) if probe else 1.0)
        if setup_times is not None:
            due = SETUP_REPEATS * min(1.0, elapsed / seconds)
            while len(setup_times) < due:
                timed_setup(workload, setup_times)
    while setup_times is not None and len(setup_times) < SETUP_REPEATS:
        timed_setup(workload, setup_times)
    return rounds


def end_to_end(workload, rounds, setup_times, probe):
    """The end-to-end metrics; times are scaled to the probe's reference speed."""
    def scaled(start, seconds):
        return seconds * probe.scale(start, start + seconds)

    items = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    # the probe's own time is taken out of round wall and CPU times
    walls = [(r.wall - probe.cpu_between(r.start, r.end)) * probe.scale(r.start, r.end)
             for r in rounds]
    cpus = [(r.cpu - probe.cpu_between(r.start, r.end)) * probe.scale(r.start, r.end)
            for r in rounds]
    latencies = [scaled(i.start, i.seconds) for r in rounds for i in r.items]
    tail_value, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(scaled(a, t) for a, t in setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (workload.items_per_round / statistics.median(walls), "1/s"),
        "item_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "item_tail_ms": (1000 * tail_value, "ms"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": ((items - failed) / items, "ratio"),
    }
    details = {"rounds": len(rounds), "round_wall_s_raw": [r.wall for r in rounds],
               "round_scale": [probe.scale(r.start, r.end) for r in rounds],
               "wall_s_raw": statistics.median(r.wall for r in rounds),
               "cpu_s_raw": statistics.median(r.cpu for r in rounds),
               "probes": len(probe.seconds), "probe_cpu_s": probe.cpu,
               "probe_median_s": statistics.median(probe.seconds),
               "items_per_round": workload.items_per_round,
               "latency_samples": len(latencies), "tail_percentile": tail_pct,
               "tail_samples_beyond": beyond, "fail_ratio": failed / items,
               "setup_s_raw": [t for _, t in setup_times]}
    return metrics, details


def per_layer(tracer, traced, untraced_wall):
    """The per-layer metrics of one traced round."""
    self_s = tracer.self_seconds()
    c, m = tracer.counters, tracer.maxima
    checks = c["zeta.determinant_formula_checks"]
    metrics = {f"{name}.self_s": (self_s.get(name, 0.0), "s") for name in (
        "zeta.primes", "zeta.euler", "laurent.det", "laurent.rational",
        "laurent.matmul", "laurent.canonicalize", "knot_model.parse",
        "knot_model.transform", "arc_graph.build", "arc_graph.matrix",
        "arborescence.enumerate", "alexander.fox", "alexander.polynomial",
        "twisted.poly", "twisted.checks", "twisted.colorings", "cli")}
    for name in ("zeta.primes.count", "zeta.closed_walks.count", "laurent.det.dim_sum",
                 "knot_model.transform.arcs_out", "arc_graph.build.vertices",
                 "arborescence.trees"):
        metrics[name] = (c[name], "count")
    for name in ("zeta.spectral.calls", "laurent.det.calls", "laurent.det.cofactor_calls",
                 "arborescence.enumerate.calls"):
        metrics[name] = (c[name], "calls")
    metrics["zeta.euler.bits"] = (m["zeta.euler.bits"], "bits")
    metrics["laurent.det.coeff_bits_max"] = (m["laurent.det.coeff_bits_max"], "bits")
    metrics["laurent.det.dim_max"] = (m["laurent.det.dim_max"], "rows")
    metrics["zeta.spectral.per_check"] = (
        c["zeta.spectral.calls"] / checks if checks else 0.0, "calls/check")
    metrics["cli.emit_bytes"] = (traced.emitted_bytes, "bytes")
    metrics["cli.verify.overlap"] = (tracer.wall_seconds("cli.check") / traced.wall, "ratio")
    metrics["trace.overhead_s"] = (traced.wall - untraced_wall, "s")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "knotzeta" / "__init__.py").is_file():
        print(f"no knotzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One CPU for every thread of the run, the probe's among them: the two
    # vCPUs of a shared host change speed independently, so a probe on the
    # other one would not track the workload.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = environment(args)
    env["cpu"] = cpu
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    setup_times = []

    if not args.trace:
        probe = Probe()
        probe.start()
        try:
            timed_setup(workload, setup_times)
            rounds = run_rounds(workload, args.seconds, setup_times, probe)
        finally:
            probe.stop()
        metrics, details = end_to_end(workload, rounds, setup_times, probe)
    else:
        from tracing import Tracer

        timed_setup(workload, setup_times)
        rounds = run_rounds(workload, args.seconds / 2)
        # round 0 again, warm and untraced, as the baseline of the traced one:
        # rounds of `polys` hold different work
        rounds.append(workload.run_round(0))
        workload.check(rounds[-1])
        tracer = Tracer()
        tracer.install()
        try:
            traced = workload.run_round(0)
        finally:
            tracer.uninstall()
        workload.check(traced)
        metrics = per_layer(tracer, traced, rounds[-1].wall)
        rounds.append(traced)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_file)
        details = {"rounds_untraced": len(rounds) - 1, "spans": len(tracer.spans),
                   "spans_file": str(spans_file.relative_to(ROOT)),
                   "untraced_functions": tracer.missing}

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    details["errors"] = dict(Counter(i.error for r in rounds for i in r.items if i.error))
    details["failures"] = [f for r in rounds for f in r.failures][:20]
    print(json.dumps({"env": env, "details": details}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
