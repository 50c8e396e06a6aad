"""Benchmark of the pauliflow pipeline: compile, rewrite chains and verify.

Run from the root of a checkout:

    python3 benchmark/run.py --workload compile-160 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, measured with
tracing off; with ``--trace 1`` they are the per-layer ones, from a
separate traced pass and a cProfile pass.  Lines before it restate every
metric with its unit, plus the details behind them.  A fuller record
(environment, digest, exact counts, spans) is written under
``benchmark/out/``.  See NOTES.md for the workloads and predictions.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from speed import SpeedProbe
from tracing import Tracer, Untraced, self_shares

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "benchmark" / "out"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
TRACE_SHARE = 1 / 3  # share of --seconds for each of the untraced, traced and profiled passes
GROWTH_SIZES = (80, 160)
GROWTH_PATTERNS = 2
MODULE_GROUPS = ("cli", "extract", "f2", "flow", "graph", "oracle", "pauli", "pddag",
                 "rewrite", "fractions", "numpy", "other")


@dataclass
class PassResult:
    seconds: List[float] = field(default_factory=list)  # one per operation
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    prefix_counts: Counter = field(default_factory=Counter)  # exact for a seed
    depth_max: int = 0
    digest: str = ""
    speed: SpeedProbe = field(default_factory=SpeedProbe)


def run_pass(wl, data, seed, tr, seconds, min_ops, max_ops=None, profile=None) -> PassResult:
    """Run operations until both min_ops are done and seconds have passed.

    The speed probe samples between operations, outside their timing.
    """
    from workloads import Outcome

    state = wl.start(data, seed)
    res = PassResult()
    sha = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    i = 0
    while (i < min_ops or time.perf_counter() < deadline) and (max_ops is None or i < max_ops):
        op, check = wl.next_op(state, i, tr)
        res.speed.maybe_sample()
        error = None
        token = tr.begin("op", i)
        if profile is not None:
            profile.enable()
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # a raising operation counts as failed
            error = exc
        elapsed = time.perf_counter() - t0
        if profile is not None:
            profile.disable()
        tr.end(token)
        if error is None:
            try:
                outcome = check(out)
            except Exception as exc:
                error = exc
        if error is not None:
            outcome = Outcome(False, note=f"{type(error).__name__}: {error}")
        res.seconds.append(elapsed)
        if not outcome.ok:
            res.failed += 1
            res.errors.append(f"op {i}: {outcome.note or 'check failed'}")
        res.depth_max = max(res.depth_max, outcome.counts.pop("depth_max", 0))
        if i < wl.prefix:
            for doc in outcome.docs:
                sha.update(doc.encode())
            res.prefix_counts.update(outcome.counts)
        i += 1
    res.speed.sample()
    res.digest = sha.hexdigest()
    return res


# -- set-up ------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    for var in BLAS_THREADS:
        env[var] = "1"
    return env


IMPORT_PROBE = ("import time; t = time.perf_counter(); import pauliflow; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time ``import pauliflow`` (numpy included) in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def timed_setup(wl, seed, tr):
    """Median import time plus median input-build time over several repeats,
    with the speed probe sampled before each.  Returns (seconds, probe, inputs).

    Only the last build is traced, so a traced run sees set-up calls once.
    """
    probe = SpeedProbe()
    imports = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        imports.append(import_seconds())
    builds, data = [], None
    for r in range(SETUP_REPEATS):
        probe.sample()
        t_tr = tr if r == SETUP_REPEATS - 1 else Untraced()
        token = t_tr.begin("setup", "setup")
        t0 = time.perf_counter()
        data = wl.build(seed, t_tr)
        builds.append(time.perf_counter() - t0)
        t_tr.end(token)
    return statistics.median(imports) + statistics.median(builds), probe, data


# -- metrics ---------------------------------------------------------------------------


def tail(values: List[float]):
    """(value, percentile): the highest order statistic with at least ten
    samples beyond it, or a quarter of the samples when there are under 40."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(10, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def end_to_end(res: PassResult, prefix: int, setup_s: float, setup_probe: SpeedProbe):
    """End-to-end metrics, times scaled to the reference speed (see speed.py).

    The tail comes from the prefix operations only: they are a fixed set for
    the seed, so how many of the slowest kind it holds does not depend on
    how fast the host ran.
    """
    tail_s, pct = tail(res.seconds[:prefix])
    attempted = len(res.seconds)
    raw = {"setup_s": setup_s, "op_p50_ms": statistics.median(res.seconds) * 1e3,
           "op_tail_ms": tail_s * 1e3, "ops_per_s": attempted / sum(res.seconds)}
    scale, setup_scale = res.speed.scale(), setup_probe.scale()
    metrics = {
        "setup_s": (raw["setup_s"] * setup_scale, "s"),
        "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
        "op_tail_ms": (raw["op_tail_ms"] * scale, "ms"),
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "ok_share": ((attempted - res.failed) / attempted, "share"),
        "cx_total": (res.prefix_counts["cx"], "count"),
        "gates_total": (res.prefix_counts["gates"], "count"),
        "nonclifford_total": (res.prefix_counts["nonclifford"], "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"op_tail_percentile": pct, "op_tail_samples": min(prefix, attempted),
               "op_samples": attempted,
               "failed_share": res.failed / attempted, "raw": raw,
               "speed_scale": scale, "setup_speed_scale": setup_scale,
               "speed_samples": res.speed.samples, "setup_speed_samples": setup_probe.samples}
    return metrics, details


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def growth_probe(seed) -> dict:
    """Fitted exponents of find and extract time over GROWTH_SIZES."""
    import inputs
    from pauliflow import extract, flow

    find, ext = {}, {}
    for n in GROWTH_SIZES:
        rng = random.Random(f"{seed}-growth-{n}")
        f_s, e_s = [], []
        for _ in range(GROWTH_PATTERNS):
            pattern = inputs.circuit_pattern(rng, n, n // 10)
            g = pattern.graph
            t0 = time.perf_counter()
            found = flow.find_pauli_flow(g)
            f_s.append(time.perf_counter() - t0)
            focussed = flow.focus_flow(g, found)
            fsets = flow.focussed_set_generators(g)
            t0 = time.perf_counter()
            extract.extract_pddag(pattern, focussed, fsets)
            e_s.append(time.perf_counter() - t0)
        find[n], ext[n] = statistics.median(f_s), statistics.median(e_s)
    lo, hi = GROWTH_SIZES
    scale = math.log(hi / lo)
    return {"flow.find_growth": math.log(find[hi] / find[lo]) / scale,
            "extract.growth": math.log(ext[hi] / ext[lo]) / scale}


def per_layer(tr, traced: PassResult, untraced: PassResult, shares: dict, growth: dict):
    from workloads import REWRITE_KINDS

    def d(name):
        return median_or_zero(tr.durations(name))

    c = traced.prefix_counts
    rewrites = sum(c[f"rewrite.{k}"] for k in REWRITE_KINDS)
    metrics = {
        "cli.parse_s": (d("cli.parse"), "s"),
        "cli.emit_s": (d("cli.emit"), "s"),
        "cli.bytes_out": (c["bytes"], "bytes"),
        "flow.find_s": (d("flow.find"), "s"),
        "flow.focus_s": (d("flow.focus"), "s"),
        "flow.fsets_s": (d("flow.fsets"), "s"),
        "flow.verify_s": (d("flow.verify"), "s"),
        "flow.depth_max": (traced.depth_max, "count"),
        "flow.found_share": (c["found"] / c["find_calls"] if c["find_calls"] else 0.0, "share"),
        "flow.find_growth": (growth["flow.find_growth"], "exponent"),
        "extract.pddag_s": (d("extract.pddag"), "s"),
        "extract.nodes": (c["nodes"], "count"),
        "extract.growth": (growth["extract.growth"], "exponent"),
        "pddag.synth_s": (d("pddag.synth"), "s"),
        "pddag.hasse_s": (d("pddag.hasse"), "s"),
        "pddag.hasse_edges": (c["hasse_edges"], "count"),
    }
    for kind in REWRITE_KINDS:
        metrics[f"rewrite.{kind}_s"] = (d(f"rewrite.{kind}"), "s")
    for kind in REWRITE_KINDS:
        metrics[f"rewrite.count.{kind}"] = (c[f"rewrite.{kind}"], "count")
    metrics["rewrite.consistent_share"] = (c["consistent"] / rewrites if rewrites else 0.0,
                                           "share")
    for name in ("pattern", "pddag", "circuit", "compare"):
        metrics[f"oracle.{name}_s"] = (d(f"oracle.{name}"), "s")
    n = min(len(traced.seconds), len(untraced.seconds))
    overhead = (statistics.median(traced.seconds[:n])
                - statistics.median(untraced.seconds[:n])) * 1e3
    metrics["trace.overhead_ms"] = (overhead, "ms")
    for group in MODULE_GROUPS:
        metrics[f"{group}.self_share"] = (shares.get(group, 0.0), "share")
    return metrics


# -- environment and output ----------------------------------------------------------


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    return {"git_revision": git_revision(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "loadavg_at_start": os.getloadavg(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREADS}}


def measure(workload: str, seed: int, seconds: float, trace: bool, wl=None) -> dict:
    """Run one workload; return the result line plus the record behind it."""
    from workloads import WORKLOADS

    env = environment()
    wl = wl or WORKLOADS[workload]()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env}
    tr = Tracer() if trace else Untraced()
    setup_s, setup_probe, data = timed_setup(wl, seed, tr)
    if not trace:
        res = run_pass(wl, data, seed, Untraced(), seconds, wl.prefix)
        metrics, details = end_to_end(res, wl.prefix, setup_s, setup_probe)
        passes = [res]
        record.update(details, op_seconds=res.seconds, digest=res.digest, prefix_ops=wl.prefix,
                      prefix_counts=dict(res.prefix_counts), errors=res.errors[:20])
    else:
        phase = seconds * TRACE_SHARE
        plain = run_pass(wl, data, seed, Untraced(), phase, wl.prefix)
        traced = run_pass(wl, data, seed, tr, 0, len(plain.seconds), len(plain.seconds))
        profile = cProfile.Profile()
        profiled = run_pass(wl, data, seed, Untraced(), phase, 1, profile=profile)
        shares = self_shares(profile)
        metrics = per_layer(tr, traced, plain, shares, growth_probe(seed))
        passes = [plain, traced, profiled]
        record.update(digest=traced.digest, digest_untraced=plain.digest,
                      prefix_ops=wl.prefix, prefix_counts=dict(traced.prefix_counts),
                      self_seconds=tr.self_seconds(), self_shares=shares,
                      errors=(plain.errors + traced.errors + profiled.errors)[:20],
                      spans=tr.as_records())
    attempted = sum(len(p.seconds) for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and (not trace or record["digest"] == record["digest_untraced"])
    record["result"] = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record


def report(record: dict) -> None:
    """Print every metric with its unit, the details, then the result line."""
    out = sys.stdout
    out.write(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
              f"trace={int(record['trace'])}\n")
    for k, v in sorted(record["environment"].items()):
        out.write(f"# env {k}: {v}\n")
    for name, m in record["result"]["metrics"].items():
        out.write(f"{name:28s} {m['value']:>16.6g} {m['unit']}\n")
    if record["trace"]:
        for name, s in sorted(record["self_seconds"].items(), key=lambda kv: -kv[1]):
            out.write(f"# self time {name:22s} {s:10.4f} s\n")
    else:
        out.write(f"# failed_share {record['failed_share']:.6g} share; op_tail_ms is "
                  f"p{record['op_tail_percentile']:.1f} of the {record['op_tail_samples']} prefix "
                  f"operations; op_p50_ms is over all {record['op_samples']}\n")
        out.write(f"# times above are scaled by {record['speed_scale']:.4f} (set-up by "
                  f"{record['setup_speed_scale']:.4f}) to the reference speed; raw: "
                  f"{json.dumps(record['raw'])}\n")
    out.write(f"# digest of the first {record['prefix_ops']} operations' documents: "
              f"{record['digest']}\n")
    out.write(f"# exact counts over them: {json.dumps(record['prefix_counts'], sort_keys=True)}\n")
    for err in record["errors"]:
        out.write(f"# failure {err}\n")
    out.write(json.dumps(record["result"]) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["compile-160", "rewrite-chain", "verify-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pauliflow" / "__init__.py").is_file():
        sys.stderr.write(f"pauliflow sources not found under {SRC}\n")
        return 2
    for var in BLAS_THREADS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
