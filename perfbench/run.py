#!/usr/bin/env python3
"""Benchmark of mrhydro, one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 30 --trace 0

Workloads: matrix, design, sweep (see perfbench/README.md).  The run
imports the program from src/, sets up, times the passes made from the
seed, checks every output and prints readable lines, then one JSON line:
correct, attempted, failed and the metrics.  --trace 0 reports the
end-to-end metrics; --trace 1 repeats the passes under the span tracer
and reports the per-layer metrics and the tracing overhead instead.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import proctree  # noqa: E402
import speed  # noqa: E402
from stats import failed_frac, median, tail_percentile  # noqa: E402
from tracer import Patcher, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = (4, 3)   # fresh set-ups timed before and after the passes
PROBE_TIMEOUT_S = 60


def _load_program() -> None:
    init = SRC / "mrhydro" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import mrhydro
    if Path(mrhydro.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported mrhydro from {mrhydro.__file__}, not {init}")


def _blas_threads():
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return "unknown"


def context(args, n_passes: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": n_passes, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def measure_setup(args, count: int) -> list:
    """Process start to ready, in fresh interpreters doing only the set-up.

    Returns (measured s, speed scale) per probe; the import reference is
    timed before the first probe and after each one.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times, refs = [], [speed.time_import_reference()]
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(t1 - t0)
        refs.append(speed.time_import_reference())
    return [(t, 2.0 * speed.NOMINAL_IMPORT_S / (a + b))
            for t, a, b in zip(times, refs, refs[1:])]


def run_sampled(run_pass, ctx, inputs) -> tuple[list, list, proctree.TreeRss]:
    """Untraced passes, each under its own speed sampler, with memory sampled."""
    results, samplers = [], []
    with proctree.TreeRss() as rss:
        for inp in inputs:
            with speed.SpeedSampler() as sampler:
                ctx.clock = sampler.clock
                results.append(run_pass(ctx, inp))
            ctx.clock = time.perf_counter
            samplers.append(sampler)
    return results, samplers, rss


def digest(results) -> str:
    blob = json.dumps([r.outputs for r in results], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("matrix", "design", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)

    _load_program()
    import layers
    import workloads as wl

    reference = json.loads((HERE / "reference.json").read_text())
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    n_passes = wl.passes_for(args.workload, args.seconds)
    ctx, inputs = wl.setup(args.workload, args.seed, n_passes, reference, str(workdir))
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    own_setup_s = time.perf_counter() - T_START

    run_pass = wl.PASSES[args.workload]
    if args.trace:
        results = [run_pass(ctx, inp) for inp in inputs]
    else:
        setup = measure_setup(args, SETUP_PROBES[0])
        results, samplers, rss = run_sampled(run_pass, ctx, inputs)
        setup += measure_setup(args, SETUP_PROBES[1])
    checked = list(results)

    print(f"perfbench {args.workload} seed={args.seed} passes={n_passes} trace={args.trace}")
    print("context " + json.dumps(context(args, n_passes), sort_keys=True))
    print(f"digest {args.workload} {digest(results)}")
    walls = [r.wall_s for r in results]
    print("pass wall_s measured " + " ".join(f"{w:.4f}" for w in walls))
    print(f"set-up of this process {own_setup_s:.4f} s")

    if args.trace:
        tracer = Tracer()
        with Patcher() as patch:
            layers.install(patch, tracer)
            traced = [run_pass(ctx, inp) for inp in inputs]
        checked += traced
        traced_wall = median([r.wall_s for r in traced])
        overhead = traced_wall - median(walls)
        print(f"digest traced {args.workload} {digest(traced)}")
        print(f"tracing overhead {args.workload}: traced wall_s {traced_wall:.4f}"
              f" - untraced wall_s {median(walls):.4f} = {overhead:.4f} s")
        metrics = {name: _metric(v, unit) for name, (v, unit)
                   in layers.layer_metrics(tracer, traced, overhead).items()}
        spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.npz"
        tracer.save(str(spans_path))
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        scales = [speed.scale(s.samples) for s in samplers]
        print("pass speed scale " + " ".join(f"{f:.4f}" for f in scales)
              + ", kernel samples " + " ".join(str(len(s.samples)) for s in samplers)
              + ", skipped with other program work running "
              + " ".join(str(s.skipped) for s in samplers))
        print("setup_s probes measured " + " ".join(f"{t:.4f}" for t, _ in setup)
              + ", speed scale " + " ".join(f"{f:.4f}" for _, f in setup))
        latencies = [dt * s.scale_near(start, start + dt)
                     for r, s in zip(results, samplers) for start, dt in r.runs]
        p, tail = tail_percentile(latencies)
        metrics = {
            "setup_s": _metric(median([t * f for t, f in setup]), "s"),
            "wall_s": _metric(median([w * f for w, f in zip(walls, scales)]), "s"),
            "run_p50_s": _metric(median(latencies), "s"),
            "run_tail_s": _metric(tail, "s"),
            "peak_rss_mb": _metric(proctree.peak_rss_mb(rss), "MB"),
        }
        print(f"run_tail_s = p{p} of {len(latencies)} operations")
        if any(r.sim_s for r in results):
            rtf = median([r.sim_s / r.wall_s for r in results])
            print(f"realtime_factor {rtf:.4f} sim s / host s measured, "
                  f"{rtf / median(scales):.4f} at nominal speed")

    ops = [op for r in checked for op in r.ops]
    failures = [op.why for op in ops if not op.ok]
    attempted, failed = len(ops), len(failures)
    print(f"failed_frac {failed}/{attempted} = {failed_frac(attempted, failed):.6g}")
    for why in failures[:10]:
        print(f"  failed: {why}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for d in (workdir, OUT):
        try:
            d.rmdir()
        except OSError:  # not empty: spans were written
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
