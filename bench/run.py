"""Benchmark of the alignlab CLI: time to solution per workload, plus a traced
run that attributes the time to the package's modules.

Run from the root of a checkout:

    python3 bench/run.py --workload seqlaw --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 36 --trace 0

One run is one process and a closed loop of one client: it repeats the
workload's battery of CLI ops back to back, each op a call into
``alignlab.cli.cli_dispatch`` with ``--seed <seed>``, until ``--seconds`` is
used up.  Every op's output is checked after each battery.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from outputs import ABS_TOL, REL_TOL, judge, read_op
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative: op configs echo it into the reports
REFERENCE = BENCH / "reference.json"

LAYERS = (
    "distributions",
    "logspace",
    "metrics",
    "tilting",
    "bestofn",
    "deviations",
    "rng",
    "experiments",
    "cli",
)
SOLVERS = ("tilting.solve_alpha_for_kl", "tilting.solve_beta_for_reward")
RUNNERS = ("equivalence_scan", "ternary_figure", "random_alphabet", "closeness_bound", "ldp_probe")
SETUP_SAMPLES = 13
SETUP_PROBE = (
    "import sys; sys.path.insert(0, 'src'); import alignlab, alignlab.cli; "
    "print('ready', flush=True)"
)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    why: str
    ops: tuple[tuple[str, ...], ...]
    smoke_ops: tuple[tuple[str, ...], ...]


WORKLOADS = {
    "seqlaw": Workload(
        "exact best-of-N over length-m sequences: type enumeration and the sequence kernel do"
        " almost all the work, the tilt almost none",
        (("equivalence-scan", "--m-grid", "50,100,200,400"), ("ternary-figure",)),
        (("equivalence-scan", "--m-grid", "5,10,20"), ("ternary-figure",)),
    ),
    "flatbon": Workload(
        "the same kernel as seqlaw as 220 small flat calls of 1024 levels, no type"
        " enumeration, plus 240 tilt solves at K=1024",
        (("random-alphabet",),),
        (("random-alphabet", "--K", "16", "--seeds", "2"),),
    ),
    "tiltsolve": Workload(
        "1000 closeness-bound trials at K in {3, 10}: bracketing and bisection of the tilt"
        " solvers, no best-of-N kernel",
        (("closeness-bound",),),
        (("closeness-bound", "--trials", "20"),),
    ),
    "mcprobe": Workload(
        "Monte Carlo trial by trial with one child stream per trial, including best-of-N"
        " sampling; bypasses both exact kernels",
        (("ldp-probe", "--trials", "10000"), ("ldp-probe", "--m", "40", "--trials", "2000", "--conjecture")),
        (("ldp-probe", "--trials", "200"), ("ldp-probe", "--m", "10", "--trials", "100", "--conjecture")),
    ),
}

# The workloads BENCHMARK.json lists, whose end-to-end metrics are gated.
# tiltsolve is not among them: closeness-bound aborts at about one seed in
# eight (see bench/README.md, "A real failure"), and a gated workload must
# not have failing ops.  It still runs with --workload tiltsolve or all.
GATED = ("seqlaw", "flatbon", "mcprobe")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units() -> dict[str, str]:
    units = {
        "bestofn.bon_type_law.calls": "count",
        "bestofn.bon_type_law.self_s": "s",
        "bestofn.bon_type_law.total_s": "s",
        "bestofn.bon_type_law.classes": "count",
        "distributions.type_counts_matrix.total_s": "s",
        "distributions.log_class_sizes.total_s": "s",
        "logspace.logsumexp.calls": "count",
        "logspace.log_power_diff.calls": "count",
        "bestofn.bon_exact_pmf.total_s": "s",
        "bestofn.bon_exact_pmf.outcomes": "count",
        "bestofn.group_reward_levels.calls": "count",
        "bestofn.group_reward_levels.self_s": "s",
        "logspace.cumulative_log_probs.total_s": "s",
        "tilting.solve_alpha_for_kl.calls": "count",
        "tilting.solve_alpha_for_kl.self_s": "s",
        "tilting.solve_alpha_for_kl.total_s": "s",
        "tilting.solve_beta_for_reward.total_s": "s",
        "tilting.mismatched_tilt.calls": "count",
        "tilting.evals_per_solve": "count",
        "distributions.from_log_weights.calls": "count",
        "metrics.kl_divergence.calls": "count",
        "deviations.deviation_hit_count.self_s": "s",
        "deviations.deviation_hit_count.total_s": "s",
        "deviations.deviation_hit_count.trials": "count",
        "rng.spawn_generator.calls": "count",
        "rng.spawn_generator.self_s": "s",
        "distributions.sample_sequence.total_s": "s",
        "distributions.draw_symbols.self_s": "s",
        "distributions.log_sequence_prob.calls": "count",
        "bestofn.bon_sample.calls": "count",
        "bestofn.bon_sample.total_s": "s",
        "bestofn.bon_sample.draws": "count",
    }
    for runner in RUNNERS:
        units[f"experiments.run_{runner}.self_s"] = "s"
        units[f"experiments.run_{runner}.total_s"] = "s"
    units["experiments.write_csv.total_s"] = "s"
    units["experiments.write_csv.bytes"] = "bytes"
    units["cli.cli_dispatch.self_s"] = "s"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units.update(
        {
            "proc.cpu_s": "s",
            "proc.cpu_util": "ratio",
            "trace.wall_s": "s",
            "trace.self_sum_s": "s",
            "trace.overhead_frac": "frac",
            "ops_failed_frac": "frac",
            "checks.known_failing": "count",
            "outputs.identical": "bool",
            "outputs.max_abs_dev": "abs",
            "reference.covered": "bool",
        }
    )
    return units


# every per-layer metric with its unit, in the order it is reported
PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------- batteries


@dataclass
class Battery:
    wall_s: float
    cpu_s: float
    outputs: list
    peak_rss_mb: float  # of the process so far, read after the ops returned


def run_battery(cli, workload: str, ops, seed: int) -> Battery:
    """Run the workload's ops once, back to back, then read their outputs.

    ``cli`` is the module: its ``cli_dispatch`` is looked up per call so a
    traced run reaches the wrapper.  Wall time runs from the first op's call
    to the last op's return.
    """
    shutil.rmtree(WORK / workload, ignore_errors=True)
    dirs = [WORK / workload / str(i) for i in range(len(ops))]
    ended = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for op, outdir in zip(ops, dirs):
        argv = [*op, "--seed", str(seed), "--out", str(outdir)]
        sink, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                code = cli.cli_dispatch(argv)
        except Exception:  # a raising op is one failed op; the battery goes on
            code = None
            err.write(traceback.format_exc(limit=-3))
        ended.append((code, err.getvalue()))
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs = [read_op(d, code, text) for d, (code, text) in zip(dirs, ended)]
    return Battery(wall, cpu, outputs, peak_rss_mb)


def measure(cli, workload: str, ops, seed: int, budget_s: float) -> list[Battery]:
    """Repeat batteries while another typical one fits in ``budget_s``; at least one."""
    batteries: list[Battery] = []
    start = time.perf_counter()
    while True:
        batteries.append(run_battery(cli, workload, ops, seed))
        elapsed = time.perf_counter() - start
        typical = statistics.median(b.wall_s for b in batteries)
        if elapsed + typical > budget_s:
            return batteries


def measure_setup(samples: int) -> float:
    """Median time from starting a Python process to alignlab.cli being imported.

    One extra start comes first and is discarded: in a fresh checkout it
    may compile the bytecode, which a user pays once, not per invocation.
    """
    times = []
    for i in range(samples + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"import probe failed with exit {proc.returncode}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


# ------------------------------------------------------------------ tracing


def _arg_counter(fn, counter: str, amount):
    """Counter adding ``amount(arguments, result)`` to ``counter`` per call."""
    signature = inspect.signature(fn)

    def count(tracer, stat, args, kwargs, result):
        try:
            value = amount(signature.bind(*args, **kwargs).arguments, result)
        except (TypeError, KeyError, AttributeError, OSError):
            tracer.counter_errors.add(counter)
            return
        stat.work[counter] = stat.work.get(counter, 0) + value

    return count


def make_tracer(modules) -> Tracer:
    def in_solve(tracer, stat, args, kwargs, result):
        if any(tracer.is_open(key) for key in SOLVERS):
            stat.work["in_solve"] = stat.work.get("in_solve", 0) + 1

    specs = {
        "bestofn.bon_type_law": (
            "classes",
            lambda a, r: math.comb(a["m"] + a["p"].K - 1, a["p"].K - 1),
        ),
        "bestofn.bon_exact_pmf": ("outcomes", lambda a, r: a["outcome_probs"].K),
        "bestofn.bon_sample": ("draws", lambda a, r: a["N"] * a["m"]),
        "deviations.deviation_hit_count": ("trials", lambda a, r: a["trials"]),
        "experiments.write_csv": ("bytes", lambda a, r: Path(a["path"]).stat().st_size),
    }
    counters = {"tilting.mismatched_tilt": in_solve}
    for key, (counter, amount) in specs.items():
        layer, name = key.split(".")
        fn = getattr(modules[layer], name, None)
        if fn is not None:
            counters[key] = _arg_counter(fn, counter, amount)
    return Tracer(modules, counters, extra_namespaces=(sys.modules["alignlab"],))


def layer_metrics(tracer, traced: list[Battery], untraced: list[Battery]) -> tuple[dict, list]:
    """Per-battery means of the traced spans, plus process and trace figures."""
    n = len(traced)
    values: dict[str, float] = {}
    absent = []
    for name in PER_LAYER:
        if name.count(".") != 2 or name.split(".")[0] not in LAYERS:
            continue  # not <layer>.<function>.<figure>: derived below
        key, _, attr = name.rpartition(".")
        stat = tracer.get(key)
        if stat is None:
            absent.append(key)
            values[name] = 0.0
        elif attr in ("calls", "self_s", "total_s"):
            values[name] = getattr(stat, attr) / n
        else:
            values[name] = stat.work.get(attr, 0) / n
    solves = sum(tracer.get(k).calls for k in SOLVERS if tracer.get(k) is not None)
    tilt = tracer.get("tilting.mismatched_tilt")
    in_solve = tilt.work.get("in_solve", 0) if tilt is not None else 0
    values["tilting.evals_per_solve"] = in_solve / solves if solves else 0.0
    for layer, self_s in tracer.layer_self_s().items():
        values[f"layer.{layer}.self_s"] = self_s / n
    wall_untraced = statistics.median(b.wall_s for b in untraced)
    wall_traced = statistics.median(b.wall_s for b in traced)
    cpu = statistics.median(b.cpu_s for b in untraced)
    values["proc.cpu_s"] = cpu
    values["proc.cpu_util"] = cpu / wall_untraced
    values["trace.wall_s"] = wall_traced
    values["trace.self_sum_s"] = sum(s.self_s for s in tracer.stats.values()) / n
    values["trace.overhead_frac"] = wall_traced / wall_untraced - 1.0
    return values, sorted(set(absent))


# ------------------------------------------------------------------- checks


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    known_failing: int = 0
    identical: bool = True
    covered: bool = False  # a reference with a report for every op
    max_abs_dev: float = 0.0
    problems: list = field(default_factory=list)


def tally(batteries: list[Battery], reference_ops: list | None) -> Tally:
    covered = reference_ops is not None and not any(r["aborted"] for r in reference_ops)
    t = Tally(covered=covered, identical=covered)
    first = batteries[0].outputs
    for b, battery in enumerate(batteries):
        for i, out in enumerate(battery.outputs):
            ref = reference_ops[i] if reference_ops else None
            v = judge(out, ref, first[i] if b else None)
            t.attempted += 1
            t.failed += v.failed
            t.wrong += bool(v.wrong)
            t.max_abs_dev = max(t.max_abs_dev, v.max_abs_dev)
            t.identical = t.identical and bool(v.identical)
            if v.failed and len(t.problems) < 10:
                t.problems.append(f"battery {b} op {i}: " + "; ".join(v.errors + v.wrong))
            if b == 0 and ref is not None and not ref["aborted"]:
                t.known_failing += sum(
                    1 for name, passed in ref["checks"].items()
                    if not passed and out.checks.get(name) is False
                )
    return t


def load_reference(workload: str, seed: int) -> list | None:
    if not REFERENCE.is_file():
        return None
    data = json.loads(REFERENCE.read_text())
    return data["workloads"].get(workload, {}).get(str(seed))


# --------------------------------------------------------------- run record


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def run_record(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _commit(),
    }


# --------------------------------------------------------------------- main


def _import_alignlab():
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("alignlab")
    if Path(package.__file__).resolve().parent != (SRC / "alignlab").resolve():
        raise SystemExit(f"error: imported alignlab from {package.__file__}, not {SRC}")
    return {layer: importlib.import_module(f"alignlab.{layer}") for layer in LAYERS}


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    ops = workload.smoke_ops if args.smoke else workload.ops
    if not (SRC / "alignlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no alignlab package under {SRC}; run from a full checkout")
    setup_s = None
    if not args.trace:
        setup_s = measure_setup(2 if args.smoke else SETUP_SAMPLES)
    modules = _import_alignlab()
    cli = modules["cli"]
    try:
        if args.trace:
            untraced = measure(cli, args.workload, ops, args.seed, args.seconds / 2)
            tracer = make_tracer(modules)
            with tracer:
                traced = measure(cli, args.workload, ops, args.seed, args.seconds / 2)
            batteries = untraced + traced
        else:
            batteries = measure(cli, args.workload, ops, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    # loaded only now, so the reference does not count in the peak RSS
    reference_ops = None if args.smoke else load_reference(args.workload, args.seed)
    t = tally(batteries, reference_ops)
    failed_frac = t.failed / t.attempted
    walls = [b.wall_s for b in batteries]
    summary = {
        "ops_failed_frac": failed_frac,
        "checks.known_failing": t.known_failing,
        "outputs.identical": int(t.identical),
        "outputs.max_abs_dev": t.max_abs_dev,
        "reference.covered": int(t.covered),
        "batteries": len(batteries),
        "battery_wall_s": [round(w, 4) for w in walls],
        "tolerance": f"|x - ref| <= {ABS_TOL:g} + {REL_TOL:g} * |ref|",
        "problems": t.problems,
    }
    if args.trace:
        values, absent = layer_metrics(tracer, traced, untraced)
        summary["absent"] = absent
        summary["counter_errors"] = sorted(tracer.counter_errors)
        values.update({k: v for k, v in summary.items() if k in PER_LAYER})
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            # a CLI user runs one battery per process; later batteries only
            # add allocator fragmentation, which grows with their number
            "peak_rss_mb": batteries[0].peak_rss_mb,
        }
        units = END_TO_END
        print(
            f"{args.workload}: wall_s {values['wall_s']:.4f} s (median of {len(walls)} batteries,"
            f" min {min(walls):.4f}, max {max(walls):.4f}); setup_s {setup_s:.4f} s"
            f" (median of {2 if args.smoke else SETUP_SAMPLES} starts);"
            f" peak_rss_mb {values['peak_rss_mb']:.1f} MB;"
            f" ops_failed_frac {failed_frac:.4f} ({t.failed}/{t.attempted})"
        )
    print("run_record " + json.dumps(run_record(args), sort_keys=True))
    print("summary " + json.dumps(summary, sort_keys=True))
    result = {
        "correct": t.wrong == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        summary = json.loads(next(l for l in lines if l.startswith("summary "))[8:])
        rows.append((name, json.loads(lines[-1]), summary))
    for name, result, summary in rows:
        print(f"== {name}: correct={result['correct']} failed={result['failed']}/{result['attempted']}"
              f" ops_failed_frac={summary['ops_failed_frac']:.4f}"
              f" known_failing_checks={summary['checks.known_failing']}")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:45s} {entry['value']:.6g} {entry['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced op sizes, no reference")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
