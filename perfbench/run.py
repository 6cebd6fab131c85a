"""dqwitness benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports the package from
the checkout's `src/` and fails (exit 2, no result) when that is missing.
NAME is one of cli_verdict, sector_ladder, bath_uniform, or `all`, which
runs each in its own process and prints one table.

`--trace 0` times a closed loop (one client; the next op starts when the
previous one ended) for S seconds and reports the end-to-end metrics, in
seconds calibrated against a reference task timed next to each op (see
"host-speed calibration" below).
`--trace 1` runs the first ops of the same seeded sequence once untraced and
once with the span wrappers of `spans.py` installed, and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object; a fuller record with provenance goes to
`.bench_results/` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and every child it starts: load comes from
# a single client, and the figures do not depend on the machine's core count.
# Must be set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
RESULTS = ROOT / ".bench_results"
PROBES = 5  # fresh interpreters per set-up or import figure; the median is reported


# Ratios the benchmark derives from counts rather than reads off one span.
COMPUTED = {
    "dynamics.ladder.useful_work_ratio": "sum(levels_final^3) / sum(levels_tried^3)",
    "thermal.dt_cache.hit_ratio": "1 - expm calls / evolve_master steps",
    "thermal.evolve_master.per_sample_s": "evolve_master busy_s / samples",
    "linalg.decomp_per_sample": "(eigh + eigvalsh calls) / evolve_master samples",
    "trace.overhead_ratio": "traced pass wall / untraced pass wall, same ops",
    "algebra.killing_classify.failed": "raised in the traced ops + NotClosed in the J sweep",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "dqwitness" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'dqwitness'}; run from a dqwitness checkout")
    sys.path.insert(0, str(SRC))
    import dqwitness

    if Path(dqwitness.__file__).resolve().parent != (SRC / "dqwitness").resolve():
        fail(f"imported dqwitness from {dqwitness.__file__}, not from {SRC}")
    return dqwitness


# -- fresh-interpreter probes ---------------------------------------------------

def wall(argv: list[str], env: dict, cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        fail(f"probe {argv} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed, proc


def setup_probe(workload, env: dict, cwd: Path):
    """Timer for one fresh interpreter that imports and builds the fixed objects."""
    if workload.setup is None:
        argv = [sys.executable, "-c", "import dqwitness"]
    else:
        argv = [sys.executable, str(HERE / "probe.py"), workload.name]
    return lambda: wall(argv, env, cwd)[0]


def import_figures(env: dict, cwd: Path) -> dict:
    """`import.*` metrics from `python -c pass` and `python -X importtime`."""
    starts = [wall([sys.executable, "-c", "pass"], env, cwd)[0] for _ in range(PROBES)]
    code = "import dqwitness, sys; print(int('scipy.linalg' in sys.modules))"
    imports, loaded = [], set()
    for _ in range(PROBES):
        _, proc = wall([sys.executable, "-X", "importtime", "-c", code], env, cwd)
        loaded.add(int(proc.stdout.strip()))
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2] == " dqwitness":
                imports.append(int(fields[1]) * 1e-6)
    if len(imports) != PROBES or len(loaded) != 1:
        fail("could not read the dqwitness import time from -X importtime")
    return {
        "import.process_start_s": statistics.median(starts),
        "import.dqwitness_s": statistics.median(imports),
        "import.scipy_linalg_loaded": loaded.pop(),
    }


# -- host-speed calibration -------------------------------------------------------
#
# The benchmark shares a host whose speed swings by a third or more within
# minutes, for every program alike.  So each op is timed next to a reference
# task that does not use dqwitness, and its wall time is scaled by the
# reference's nominal time over its measured time nearby: the metrics are
# seconds on a host where the reference takes its nominal time.  A change to
# dqwitness moves them as it moves wall time; the host's drift cancels.

# Round figures near the tasks' medians on the 2-core Xeon VM (Python 3.11,
# one BLAS thread) where the benchmark was defined.  Fixed: never re-measured.
REFERENCE_NOMINAL_S = {"start": 0.060, "compute": 0.010}
REFERENCE_WINDOW = 2  # ops on each side whose reference times set an op's scale
SETUP_REFERENCES = 3  # reference runs next to each set-up probe

_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((96, 96))
_REFERENCE_MATRIX = _REFERENCE_MATRIX + _REFERENCE_MATRIX.T


def reference_task(kind: str, env: dict, cwd: Path):
    """Timer of a fixed task: a fresh `python -c pass` ("start"), or an
    in-process mix of interpreter loop, LAPACK and fresh memory ("compute")."""

    def start() -> float:
        return wall([sys.executable, "-c", "pass"], env, cwd)[0]

    def compute() -> float:
        begin = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        np.linalg.eigh(_REFERENCE_MATRIX)
        for _ in range(8):  # 2 MB each, so the peak RSS barely moves
            np.ones(1 << 18).sum()
        return time.perf_counter() - begin

    return start if kind == "start" else compute


def calibrated(times: list[float], refs: list[float], nominal: float) -> list[float]:
    """times[i] * nominal / median of refs[i - W .. i + W]."""
    out = []
    for i, t in enumerate(times):
        nearby = refs[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1]
        out.append(t * nominal / statistics.median(nearby))
    return out


# -- measurement ----------------------------------------------------------------

TAIL_PERCENTILE = 90


def tail(latencies: list[float]) -> tuple[float, int]:
    """The nearest-rank 90th percentile, and how many samples lie beyond it.

    A fixed percentile rather than "the highest with ten samples beyond":
    sector_ladder's slowest ops (1025-level ladders) are about a sixth of
    its ~75 ops a run, so a rank tied to the op count can fall either side
    of that cluster's edge from run to run; the 90th lies inside it.
    """
    ordered = sorted(latencies)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, seconds: float, env: dict, cwd: Path) -> tuple[dict, list, dict]:
    """Closed loop for `seconds` of op time, with the set-up probes spread over it.

    The machine's speed drifts over seconds, so the probes are interleaved
    with the ops rather than bunched at the start; their time is not loop time.
    Every op and every set-up probe is timed next to a reference task and
    reported in reference seconds (see `calibrated`).
    """
    probe = setup_probe(workload, env, cwd)
    op_kind = "compute" if workload.in_process else "start"
    start_ref, op_ref = reference_task("start", env, cwd), reference_task(op_kind, env, cwd)

    def probe_pair() -> tuple[float, float]:
        # One `python -c pass` swings as much as the probe does: take a median.
        return probe(), statistics.median(start_ref() for _ in range(SETUP_REFERENCES))

    setups, outcomes, refs, elapsed = [], [], [], 0.0
    while elapsed < seconds:
        if len(setups) < PROBES and elapsed >= len(setups) * seconds / PROBES:
            setups.append(probe_pair())
        refs.append(op_ref())
        start = time.perf_counter()
        outcomes.append(workload.op(len(outcomes)))
        elapsed += time.perf_counter() - start
    setups += [probe_pair() for _ in range(PROBES - len(setups))]
    latencies = calibrated([o.seconds for o in outcomes], refs, REFERENCE_NOMINAL_S[op_kind])
    setup_times = [t * REFERENCE_NOMINAL_S["start"] / ref for t, ref in setups]
    extra = [workload.op(i) for i in workload.unchecked_repeats()]
    everything = outcomes + extra
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:  # the children's peak
        peak_kb = max(o.rss_kb for o in everything)
    tail_value, beyond = tail(latencies)
    failed = sum(o.failed for o in everything)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "ops_per_s": len(outcomes) / sum(latencies),
        "success_ratio": 1.0 - failed / len(everything),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    samples = {
        "setup_s": {"fresh_interpreters": len(setups), "raw_and_reference_s": setups},
        "op_p50_s": {"ops": len(latencies),
                     "raw_s": statistics.median(o.seconds for o in outcomes)},
        "op_tail_s": {"ops": len(latencies), "percentile": TAIL_PERCENTILE,
                      "samples_beyond": beyond},
        "ops_per_s": {"ops": len(outcomes), "raw_loop_seconds": elapsed,
                      "raw_per_s": len(outcomes) / elapsed},
        "success_ratio": {"ops": len(everything), "untimed_repeat_checks": len(extra)},
        "peak_rss_mb": {"processes": 1 if workload.in_process else len(everything)},
        "reference": {"task": op_kind, "nominal_s": REFERENCE_NOMINAL_S[op_kind],
                      "median_s": statistics.median(refs), "runs": len(refs)},
    }
    return metrics, everything, samples


def per_layer(workload, env: dict, cwd: Path) -> tuple[dict, list, dict]:
    """The first `trace_ops` ops, each run once untraced and once traced.

    The two runs of an op are adjacent, in alternating order, so the
    machine's drift over seconds cancels out of the overhead ratio.
    """
    op = workload.traced_op
    tracer = spans.Tracer()
    outcomes = [op(0)]  # warm-up: first-call costs stay out of both passes
    traced_outcomes, untraced, traced = [], 0.0, 0.0
    for i in range(workload.trace_ops):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            with tracer.installed() if with_spans else contextlib.nullcontext():
                start = time.perf_counter()
                outcome = op(i)
                elapsed = time.perf_counter() - start
            if with_spans:
                traced += elapsed
                traced_outcomes.append(outcome)
            else:
                untraced += elapsed
            outcomes.append(outcome)
    metrics = import_figures(env, cwd)
    metrics.update(spans.layer_metrics(tracer.spans, [o.notes for o in traced_outcomes]))
    metrics["algebra.killing_classify.failed"] += len(workload.known_defects)
    metrics["trace.overhead_ratio"] = traced / untraced
    samples = {"traced_ops": workload.trace_ops, "untraced_seconds": untraced,
               "traced_seconds": traced, "spans": len(tracer.spans), "import_probes": PROBES}
    return metrics, outcomes, {"samples": samples, "spans": tracer.spans}


# -- provenance -----------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, dq) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "dqwitness": getattr(dq, "__version__", "unknown"),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "client": "one process, closed loop",
        "git_commit": git_commit(),
    }


# -- entry points -----------------------------------------------------------------

def run_one(args) -> dict:
    dq = import_package()
    # Inside the checkout, which is all the benchmark may write to; removed on exit.
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        workload = WORKLOADS[args.workload](dq, args.seed, workdir, env)
        if args.trace:
            metrics, outcomes, detail = per_layer(workload, env, workdir)
        else:
            metrics, outcomes, samples = end_to_end(workload, args.seconds, env, workdir)
            detail = {"samples": samples}

    declared = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        fail(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json")
    errors = [*workload.setup_errors, *(e for o in outcomes for e in o.errors)]
    result = {
        "correct": not errors,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, provenance=provenance(args, dq),
                  computed={k: v for k, v in COMPUTED.items() if k in metrics},
                  failed_ratio=result["failed"] / result["attempted"],
                  errors=errors[:20], known_defect_not_closed=list(workload.known_defects),
                  **{k: v for k, v in detail.items() if k != "spans"})
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if "spans" in detail:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as out:
            out.write('["name", "start", "end", "parent", "size", "raised"]\n')
            for span in detail["spans"]:
                out.write(json.dumps(span) + "\n")
    if workload.known_defects:
        print(f"known defect: killing_classify raised NotClosed on {len(workload.known_defects)} "
              f"scaled triples of the untimed J sweep, the first {workload.known_defects[0]}")
    return result


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in benchmark[kind]}


def print_summary(name: str, result: dict) -> None:
    failed_ratio = result["failed"] / result["attempted"]
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_ratio={failed_ratio:.4f}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:45s} {entry['value']:.6g} {entry['unit']}")


def run_all(args) -> None:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            fail(f"{name} exited {proc.returncode}: {proc.stderr[-500:]}")
        *summary, last = proc.stdout.strip().splitlines()
        print("\n".join(summary))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
        return
    result = run_one(args)
    print_summary(args.workload, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
