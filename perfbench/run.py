"""dflkit benchmark: time, trace and check the three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-train --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` the run sets up, then runs rounds of the workload's four
operation kinds for about ``--seconds`` of operation time, and reports the
end-to-end metrics listed in ``BENCHMARK.json``.  With
``--trace 1`` it runs each kind untraced, traced and untraced again, and
reports the per-layer metrics instead.  Every operation's output is checked after it
returns, outside the timed region.  ``--workload all`` runs every workload
both ways, each in its own process, one after the other.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
provenance and digests, and for traced runs a gzipped span trace, are
written under ``perfbench/out/``.  The exit code is non-zero when any check
failed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WORKLOADS = ("grid-train", "tsp-targets", "cli-pipeline")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def provenance(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Running and checking operations
# ---------------------------------------------------------------------------

def timed(wl, kind):
    """Run one operation; returns ``(output, error, seconds)``."""
    start = time.perf_counter()
    try:
        out, error = wl.run_op(kind), None
    except Exception:
        out, error = None, f"{kind}: raised\n{traceback.format_exc()}"
    return out, error, time.perf_counter() - start


def checked(wl, kind, out, error, seconds, first: dict) -> dict:
    """Check one operation's output; ``first`` holds each kind's first digests,
    which every later repeat must reproduce."""
    import checks

    rec = {"kind": kind, "seconds": seconds, "solves": 0, "digests": {},
           "failures": [], "cells": 0, "cells_failed": 0}
    if error is not None:
        rec["failures"].append(error)
        return rec
    try:
        solves, digests, fails, cells, cells_failed = wl.check(kind, out)
    except Exception:
        rec["failures"].append(f"{kind}: check raised\n{traceback.format_exc()}")
        return rec
    fails += checks.check_equal(first.setdefault(kind, digests), digests, kind)
    rec.update(solves=solves, digests=digests, failures=fails, cells=cells,
               cells_failed=cells_failed)
    return rec


def attempted_failed(ops) -> tuple:
    """An operation is an arm, a command or a sweep cell.  A sweep command
    whose only failures are failed cells is not counted twice."""
    attempted = sum(1 + r["cells"] for r in ops)
    failed = sum(r["cells_failed"] + (len(r["failures"]) > r["cells_failed"])
                 for r in ops)
    return attempted, failed


def measure(wl, seconds: float) -> list:
    """Whole rounds, one operation of each kind per round, until about
    ``seconds`` of operation time have passed: another round starts only if
    the total would then end closer to ``seconds``."""
    ops, first, spent, rounds = [], {}, 0.0, 0
    while rounds == 0 or spent + spent / rounds / 2 < seconds:
        for kind in wl.kinds:
            ops.append(checked(wl, kind, *timed(wl, kind), first))
            spent += ops[-1]["seconds"]
        rounds += 1
    return ops


def per_kind(wl, ops) -> dict:
    """Median seconds and sample count of each operation kind, untraced."""
    times = {kind: [r["seconds"] for r in ops if r["kind"] == kind and "traced" not in r]
             for kind in wl.kinds}
    return {kind: (statistics.median(t), len(t)) for kind, t in times.items()}


def end_to_end(wl, ops, setup_s, setup_runs) -> dict:
    """``name -> (value, samples)`` for every end-to-end metric."""
    rounds = len(ops) // len(wl.kinds)
    total_s = sum(r["seconds"] for r in ops)
    return {
        "setup_s": (setup_s, len(setup_runs)),
        # A mean, not a median: machine speed here flips between two modes,
        # and the median of two or three rounds jumps between them.
        "round_s": (total_s / rounds, rounds),
        "solves_per_s": (sum(r["solves"] for r in ops) / total_s, len(ops)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def solve_ladder(seed: int) -> dict:
    """Median microseconds per nominal solve on seeded cost rows, per
    instance size.  Timed directly, never through the tracer."""
    import numpy as np
    from dflkit import oracles

    ladder = {"grid5x5": (oracles.GridShortestPath(5, 5), 400),
              "grid10x10": (oracles.GridShortestPath(10, 10), 300),
              "grid20x20": (oracles.GridShortestPath(20, 20), 100),
              "tsp8": (oracles.DenseTSP(8), 60),
              "tsp10": (oracles.DenseTSP(10), 20),
              "tsp12": (oracles.DenseTSP(12), 5)}
    rng = np.random.default_rng(seed)
    m = {}
    for name, (inst, reps) in ladder.items():
        times = []
        for row in rng.uniform(0.5, 1.5, (reps, inst.n)):
            start = time.perf_counter()
            oracles.solve(inst, row)
            times.append(time.perf_counter() - start)
        m[f"oracles.solve_us.{name}"] = 1e6 * statistics.median(times)
    return m


def traced_run(wl, seed: int, trace_path: Path) -> tuple:
    """Each kind runs untraced, traced, then untraced again.  The tracing
    overhead is the traced operations' time minus the mean of the untraced
    ones; running them back to back keeps machine drift out of it."""
    import tracer

    first, untraced, traced = {}, [], []
    tr = tracer.Tracer()
    for kind in wl.kinds:
        untraced.append(checked(wl, kind, *timed(wl, kind), first))
        tr.op = f"traced:{kind}"
        tr.install()
        try:
            result = timed(wl, kind)
        finally:
            tr.remove()
        traced.append(dict(checked(wl, kind, *result, first), traced=True))
        untraced.append(checked(wl, kind, *timed(wl, kind), first))
    m = tracer.layer_metrics(tr.spans)
    m.update(solve_ladder(seed))
    m["trace.overhead_s"] = (sum(r["seconds"] for r in traced)
                             - sum(r["seconds"] for r in untraced) / 2)
    tr.write(trace_path)
    return {k: (v, 1) for k, v in m.items()}, untraced + traced


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(wl, seconds, trace, trace_path, import_s, seed) -> tuple:
    """Set ``wl`` up ``SETUP_REPEATS`` times, then measure it; returns
    ``(metrics, ops, setup_runs)`` with ``metrics`` as ``name -> (value,
    samples)``."""
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup()
        setup_runs.append(time.perf_counter() - start)
    if trace:
        measured, ops = traced_run(wl, seed, trace_path)
    else:
        ops = measure(wl, seconds)
        measured = end_to_end(wl, ops, import_s + statistics.median(setup_runs), setup_runs)
    return measured, ops, setup_runs


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "dflkit" / "__init__.py").is_file():
        print(f"error: no dflkit sources under {src}", file=sys.stderr)
        return 2
    spec = load_spec()
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    import dflkit
    import workloads

    if Path(dflkit.__file__).resolve().parent != (src / "dflkit").resolve():
        print(f"error: imported dflkit from {dflkit.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        wl = workloads.make(args.workload, args.seed, workdir)
        measured, ops, setup_runs = run_workload(
            wl, args.seconds, args.trace, OUT / f"trace-{tag}.jsonl.gz", import_s, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [w["name"] for w in wanted]
    if set(names) != set(measured):
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {sorted(set(names) ^ set(measured))}")
    attempted, failed = attempted_failed(ops)
    failures = [f for r in ops for f in r["failures"]]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args.seed),
        "setup": {"import_s": import_s, "repeats_s": setup_runs},
        "metrics": {w["name"]: {"value": measured[w["name"]][0], "unit": w["unit"],
                                "better": w["better"], "samples": measured[w["name"]][1]}
                    for w in wanted},
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "failures": failures[:50],
        "kinds": {kind: {"median_s": med, "samples": count}
                  for kind, (med, count) in per_kind(wl, ops).items()},
        "ops": [{k: r[k] for k in ("kind", "seconds", "solves", "digests")} for r in ops],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    for name, rec in result["metrics"].items():
        print(f"{args.workload:13s} {name:40s} {rec['value']:14.6g} {rec['unit']:6s} "
              f"({rec['better']} is better, n={rec['samples']})")
    print(f"{args.workload:13s} {'error_rate':40s} {failed / attempted:14.6g} "
          f"{'ratio':6s} ({failed} of {attempted} operations failed)")
    for kind, rec in result["kinds"].items():
        print(f"{args.workload:13s} {'op ' + kind:40s} {rec['median_s']:14.6g} {'s':6s} "
              f"(median seconds of one operation, n={rec['samples']})")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": rec["value"], "unit": rec["unit"]}
                    for name, rec in result["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload untraced and traced, one process at a time."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                last = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                last = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            if proc.returncode != 0 or not last["correct"]:
                summary["correct"] = False
            summary["attempted"] += last["attempted"]
            summary["failed"] += last["failed"]
            for name, rec in last["metrics"].items():
                summary["metrics"][f"{workload}:{name}"] = rec
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="operation time to measure (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
