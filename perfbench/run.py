"""Run one sparserc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload asg-d2-four --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the repository root; it imports ``sparserc`` from ``src/``.  One
run sets up once (import, inputs from the seed, one warm-up call of the
workload's entry point), then calls the entry point repeatedly for about
``--seconds`` seconds in this one process, and checks every output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced calls and reports per-layer self times and
exact work counts from the traced ones.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it describe the machine, the fits and any failed check.  The
full record, spans included, is written to ``perfbench/results/``.
``--workload all`` runs every workload in its own child process.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("asg-d2-four", "sg-d6-l4", "mc-d2-two")
# Inputs are built this many times during set-up; set-up reports the median.
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0; confirm claims on seed 1 too)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the repeated calls run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    """HEAD of the repository the benchmark runs in, or None outside git."""
    git = ROOT / ".git"
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


def openblas_threads(np):
    """Threads OpenBLAS will use, asked of the library NumPy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(np),
        "blas_thread_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def timed_call(workload, inputs, tracer=None):
    """Wall seconds and output (or the exception raised) of one call."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.call(inputs)
        else:
            with tracer:
                out = workload.call(inputs)
    except Exception as exc:
        out = exc
    return time.perf_counter() - start, out


def run_workload(args):
    if not (SRC / "sparserc" / "__init__.py").is_file():
        print(f"error: no sparserc package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sparserc

    if Path(sparserc.__file__).resolve().parent != (SRC / "sparserc").resolve():
        print(f"error: imported sparserc from {sparserc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    import_s = time.perf_counter() - _START

    prep_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.prepare(args.seed)
        prep_s.append(time.perf_counter() - start)
    # Traced, so every fit made inside it is kept for checking; each later
    # call must reproduce it bit for bit, traced or not.
    warm_tracer = Tracer()
    warm_s, first = timed_call(workload, inputs, warm_tracer)
    fits = warm_tracer.fits
    setup_s = import_s + statistics.median(prep_s) + warm_s

    walls = {False: [], True: []}
    outputs = []
    tracers = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(outputs) % 2 == 1
        tracer = Tracer() if traced else None
        wall, out = timed_call(workload, inputs, tracer)
        walls[traced].append(wall)
        outputs.append(out)
        if tracer is not None:
            tracers.append(tracer)
        done = len(outputs) >= 1 + args.trace
        typical = statistics.median(walls[False] + walls[True])
        if done and time.perf_counter() - start + typical > args.seconds:
            break

    per_call = workload.fits_per_call
    attempted = per_call * (1 + len(outputs))
    if isinstance(first, Exception):
        failed = attempted
        problems = ["warm-up call raised " + "".join(traceback.format_exception(first))]
        summary = {}
    else:
        failed, problems, summary = workload.check_warm_up(inputs, first, fits, args.seed)
        for k, out in enumerate(outputs):
            if isinstance(out, Exception):
                problems.append(f"call {k + 1} raised " + "".join(traceback.format_exception(out)))
                failed += per_call
                continue
            bad = workload.repeat_failures(first, out)
            if bad:
                problems.append(f"call {k + 1} differs from the warm-up call")
                failed += bad
    summary["calls"] = {"untraced": len(walls[False]), "traced": len(walls[True])}

    if args.trace:
        layers = [t.layer_metrics() for t in tracers]
        metrics = {key: statistics.median(v[key] for v in layers) for key in layers[0]}
        metrics["clsolver.kkt_max"] = max(v["clsolver.kkt_max"] for v in layers)
        metrics["trace.wall_s"] = statistics.median(walls[True])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls[False])
        rmise = summary.get("rmise", {})
        # None only when the fit it scores failed, which the run reports
        metrics["estimator.rmise"] = rmise.get("asg", rmise.get("sg"))
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    env = environment(args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "setup": {"import_s": import_s, "prepare_s": prep_s, "warm_up_s": warm_s},
        "walls_s": {"untraced": walls[False], "traced": walls[True]},
        "summary": summary,
        "problems": problems,
        "metrics": metrics,
        "spans": [
            [[name, layer, s - start, e - start, parent]
             for name, layer, s, e, parent in t.spans]
            for t in tracers
        ],
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# environment {json.dumps(env)}")
    print(f"# {args.workload} seed {args.seed}: {json.dumps(summary)}")
    for p in problems:
        print(f"# FAILED CHECK: {p}")
    print(f"# full record: {out_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Each workload in its own child process, so peak memory is its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        for key, metric in result["metrics"].items():
            print(f"{name:12s} {key:28s} {metric['value']} {metric['unit']}")
            metrics[f"{name}.{key}"] = metric
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
