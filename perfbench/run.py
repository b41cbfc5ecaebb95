"""capreq benchmark: one workload, one closed-loop caller, checked answers.

Usage (from the repository root):

    python3 perfbench/run.py --workload direct_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
runs the same ops untraced and then traced, and reports the per-layer
metrics, the tracing overhead and the tracer's self-check. Metric names and
units come from ``BENCHMARK.json``. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it describes the inputs and the environment. Spans and run
records are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 3


def fresh_import(env: dict) -> tuple[float, float]:
    """(process wall seconds, seconds inside ``import capreq.cli``) of a new interpreter."""
    code = ("import time; t = time.perf_counter(); import capreq.cli; "
            "print(time.perf_counter() - t)")
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return perf_counter() - t0, float(proc.stdout)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is in KiB on Linux


def environment(cpus: list[int]) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(cpus),
        "pinned_cpu": cpus[0],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_PIN},
        "load": "closed loop, 1 caller, 1 process",
    }


def describe(stats: list, first: dict, ops) -> dict:
    n = sum(len(s.lat) for s in stats)
    strategies = sum((s.strategies for s in stats), Counter())
    tags = sum((s.tags for s in stats), Counter())
    done = sorted(first)
    return {
        "attempted": n,
        "failed": sum(len(s.failures) for s in stats),
        "refused": sum(s.refused for s in stats),
        "distinct_ops": len(ops),
        "states_per_op": sum(s.states for s in stats) / max(n, 1),
        "strategy_frac": {k: v / max(n, 1) for k, v in sorted(strategies.items())},
        "tag_frac": {k: v / max(sum(tags.values()), 1) for k, v in sorted(tags.items())},
        "result_digest": hashlib.sha256("".join(first[i] for i in done).encode()).hexdigest()[:16],
        "digest_ops": len(done),
    }


def emit(names_units: list[dict], values: dict, ok: bool, attempted: int, failed: int,
         extra: dict, record: Path) -> int:
    missing = [m["name"] for m in names_units if m["name"] not in values]
    if missing:
        print(f"benchmark defect: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in names_units}
    line = {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    record.write_text(json.dumps({"descriptors": extra, "result": line}, indent=1,
                                 sort_keys=True))
    print(json.dumps({"descriptors": extra}, sort_keys=True))
    print(json.dumps(line))
    return 0


def latency_metrics(lat_s: list[float]) -> dict:
    lat_ms = sorted(1e3 * s for s in lat_s)
    return {
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0],
    }


def end_to_end(setup, seed: int, seconds: float, env: dict, is_cli: bool):
    """Untraced run: set-up timed SETUP_REPEATS times, then the closed loop.

    Times are scaled to the reference host speed (see ``pace``); the wall
    times they come from go to the descriptors.
    """
    import workloads
    from pace import REF_NOMINAL_S, Pace

    pace = Pace()
    # set-up = a new interpreter importing capreq, plus building the inputs
    imports = [pace.timed(lambda: fresh_import(env)) for _ in range(SETUP_REPEATS)]
    built: dict = {}
    inputs = [pace.timed(lambda: built.update(ops=setup(seed, ROOT)))
              for _ in range(SETUP_REPEATS)]
    ops = built["ops"]
    first: dict = {}
    stats = workloads.measure(ops, first, seconds, pace)
    scaled = [lat * pace.factor(t, t + lat) for lat, t in zip(stats.lat, stats.start)]

    def setup_s(k: int) -> float:
        return statistics.median(t[k] for t in imports) + statistics.median(t[k] for t in inputs)

    values = latency_metrics(scaled)
    values.update(setup_s=setup_s(0), peak_rss_mb=peak_rss_mb(children=is_cli))
    ref_ms = statistics.quantiles((1e3 * t for t in pace.slice_s), n=10)
    details = {"samples": len(scaled),
               "beyond_p90": sum(1 for v in scaled if 1e3 * v > values["op_p90_ms"]),
               "setup_import_s": statistics.median(t[0] for t in imports),
               "setup_inputs_s": statistics.median(t[0] for t in inputs),
               "wall": {**latency_metrics(stats.lat), "setup_s": setup_s(1)},
               "ref_slice_ms": {"p10": ref_ms[0], "p50": ref_ms[4], "p90": ref_ms[-1],
                                 "nominal": 1e3 * REF_NOMINAL_S}}
    return values, [stats], first, ops, details


def per_layer(setup, seed: int, seconds: float, env: dict, is_cli: bool, spans_path: Path):
    """Traced run: each op runs untraced, then traced.

    Alternating op by op keeps drift on a shared host out of the tracing
    overhead. For ``cli`` each op also runs as a CLI process first.
    """
    import workloads
    from tracer import Tracer
    from workloads import Stats

    import_ms = 1e3 * statistics.median(fresh_import(env)[1] for _ in range(IMPORT_REPEATS))
    ops = setup(seed, ROOT)
    tracer = Tracer()
    if is_cli:
        traced_ops = ops
        # spawned: the CLI process the user runs; plain/traced: cli.main in-process
        spawned, plain, traced = Stats(), Stats(), Stats()
        arms = [(spawned, None, False), (plain, workloads.run_cli_inprocess, False),
                (traced, workloads.run_cli_inprocess, True)]
    else:
        with tracer.tracing(op=-1):   # set-up spans: market, acceptance construction
            traced_ops = setup(seed, ROOT)
        plain, traced = Stats(), Stats()
        arms = [(plain, None, False), (traced, None, True)]
    # one discarded op first, so that lazy one-time set-up in this process
    # is charged to neither arm
    workloads.run_op(0, ops, {}, Stats(), arms[-1][1])
    first: dict = {}
    deadline = perf_counter() + seconds
    k = 0
    while perf_counter() < deadline:
        for stats, runner, traced_arm in arms:
            if traced_arm:
                with tracer.installed():
                    workloads.run_op(k, traced_ops, first, stats, runner, tracer)
            else:
                workloads.run_op(k, ops, first, stats, runner)
        k += 1

    values, problems = tracer.analyse(len(traced.lat), sum(traced.lat))
    values["trace.overhead_frac"] = sum(traced.lat) / sum(plain.lat) - 1.0
    values["cli.import_ms"] = import_ms
    values["cli.main_ms_per_op"] = 1e3 * statistics.mean(plain.lat) if is_cli else 0.0
    values["cli.startup_share"] = (1.0 - sum(plain.lat) / sum(spawned.lat)) if is_cli else 0.0
    tracer.write(spans_path)
    details = {"traced_ops": len(traced.lat), "spans": len(tracer.spans),
               "self_check_failed": len(problems), "self_check_problems": problems[:10]}
    return values, [a[0] for a in arms], first, ops, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "capreq" / "__init__.py").is_file():
        print(f"capreq sources not found under {src}", file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy loads; the cli subprocesses inherit it
    for var in BLAS_PIN:
        os.environ[var] = "1"
    # one CPU for this process and the CLI processes it starts, so that the
    # reference slices run where the ops ran (see pace)
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    sys.path.insert(0, str(src))
    import capreq
    if Path(capreq.__file__).resolve().parent != (src / "capreq").resolve():
        print(f"imported capreq from {capreq.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.SETUPS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.SETUPS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = workloads.SETUPS[args.workload]
    is_cli = args.workload == "cli"
    env = workloads.cli_env(ROOT)
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}"
    extra = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "env": environment(cpus)}

    if args.trace == 0:
        values, runs, first, ops, details = end_to_end(
            setup, args.seed, args.seconds, env, is_cli)
    else:
        values, runs, first, ops, details = per_layer(
            setup, args.seed, args.seconds, env, is_cli, out_dir / f"spans-{name}.json.gz")
    failures = [f for s in runs for f in s.failures]
    attempted = sum(len(s.lat) for s in runs)
    extra.update(describe(runs, first, ops))
    extra.update(details)
    extra.update({"fail_frac": len(failures) / max(attempted, 1), "failures": failures[:10]})
    ok = not failures and not details.get("self_check_failed")
    return emit(spec["per_layer" if args.trace else "end_to_end"], values, ok, attempted,
                len(failures), extra, out_dir / f"run-{name}-trace{args.trace}.json")


if __name__ == "__main__":
    sys.exit(main())
