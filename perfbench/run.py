"""richmult benchmark: cold-start passes of fixed workloads through the
public API, with every output checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid_g25 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --rounds 3     # every workload, interleaved
    python3 perfbench/run.py --smoke                       # fast self-test

One workload runs per process, so ``peak_rss_mb`` belongs to it.  The
process runs passes until the next one would end after ``--seconds``
(at least one).  With ``--trace 0`` the package runs unmodified and the
end-to-end metrics are printed; with ``--trace 1`` the first half of the
time runs untraced passes, then the tracer wraps every layer and the
rest runs traced passes, and the per-layer metrics are printed (medians
over traced passes; ``trace.overhead`` is traced over untraced wall time).
The last line of standard output is one JSON object; progress goes to
standard error.

Throughput is reported per reference-second (see ``reference.py``): in
untraced runs a fixed kernel is timed four times a second during the
passes, which measures how fast the machine runs at that moment and
removes most of the drift of a shared host from the figure.  The plain
verifications per wall second go to standard error.

Exit status is 0 when every output checked out, 1 when a tally, digest
or verification failed, and 2 when the benchmark could not run at all
(for instance when ``src/richmult`` is missing).

The workloads are exhaustive enumerations: ``--seed`` only orders the
``hs_oracle`` ideals within a pass and the workloads within a round of
``--workload all``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_REPEATS = 7
MIN_COVERAGE = 0.9
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import richmult\n"
    "print(time.perf_counter() - start)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import richmult
    except ImportError as exc:
        raise BenchError(f"cannot import richmult from {SRC}: {exc}") from exc
    if not Path(richmult.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"richmult was imported from {richmult.__file__}, not from {SRC}")
    return richmult


def import_seconds() -> float:
    """Median wall time of ``import richmult`` in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip()))
    return median(samples)


def run_passes(workload, inputs, budget_s: float, on_start=None, on_pass=None,
               sampler=None) -> list:
    """Passes until the next would end after budget_s; at least one.
    on_start runs right before each pass's clock starts, on_pass right
    after the pass.  With a sampler, each pass's clock excludes the
    sampling and its ``ref_s`` comes from the samples taken during it."""
    passes = []
    start = perf_counter()
    while True:
        first = len(sampler.samples) if sampler else 0
        result = workload.run_pass(inputs, on_start, sampler.clock if sampler else perf_counter)
        if sampler:
            result.ref_s = sampler.ref_second(first)
        if on_pass is not None:
            on_pass(result)
        passes.append(result)
        for err in result.errors:
            print(f"{workload.name}: {err}", file=sys.stderr)
        elapsed = perf_counter() - start
        if elapsed + median(p.wall_s for p in passes) > budget_s:
            walls = [p.wall_s for p in passes]
            print(f"{workload.name}: {len(passes)} passes, median {median(walls):.3f} s "
                  f"(min {min(walls):.3f}, max {max(walls):.3f}), "
                  f"{median(p.verified / p.wall_s for p in passes):.2f} verified/s, "
                  f"{sum(p.verified for p in passes)}/{sum(p.attempted for p in passes)} verified",
                  file=sys.stderr)
            return passes


def layer_metrics(tracer, result) -> dict:
    """Per-layer numbers of one traced pass, with units."""
    t = tracer
    tangent_cones = t.count("localmult.tangent_cone")
    covered = sum(t.layer_seconds(layer) for layer in t.layer_self_ns)
    return {
        "charts.ideal_builds": (t.count("charts.schubert_ideal") + t.count("charts.opposite_ideal"), "count"),
        "charts.self_s": (t.layer_seconds("charts"), "s"),
        "charts.translate_calls": (t.count("charts.translate_to_origin"), "count"),
        "charts.translate_s": (t.seconds("charts.translate_to_origin"), "s"),
        "charts.cone_check_s": (t.seconds("charts.is_cone_over_origin"), "s"),
        "groebner.bases": (t.count("groebner.reduced_groebner_basis"), "count"),
        "groebner.self_s": (t.layer_seconds("groebner"), "s"),
        "groebner.normal_form_calls": (t.count("groebner.normal_form"), "count"),
        "groebner.interreduce_calls": (t.count("groebner.interreduce"), "count"),
        "groebner.canonical_key_calls": (t.count("groebner.PolyIdeal.canonical_key"), "count"),
        "groebner.canonical_key_s": (t.seconds("groebner.PolyIdeal.canonical_key"), "s"),
        "groebner.max_basis_len": (t.max_basis_len, "count"),
        "groebner.max_coeff_bits": (t.max_coeff_bits, "bits"),
        "hilbert.calls": (t.layer_entries["hilbert"], "count"),
        "hilbert.self_s": (t.layer_seconds("hilbert"), "s"),
        "localmult.tangent_cones": (tangent_cones, "count"),
        "localmult.tangent_cone_s": (t.seconds("localmult.tangent_cone"), "s"),
        "localmult.hs_series_calls": (t.count("localmult.hilbert_samuel_series"), "count"),
        "localmult.hs_s": (
            t.seconds("localmult.hilbert_samuel_series")
            + t.seconds("localmult.hilbert_samuel_multiplicity")
            + t.seconds("localmult.fit_leading_coefficient"), "s"),
        "engine.self_s": (t.layer_seconds("engine"), "s"),
        "engine.jacobian_s": (t.seconds("engine.jacobian_corank"), "s"),
        "engine.sample_s": (t.seconds("engine.sample_points"), "s"),
        "engine.tangent_cones_per_report": (tangent_cones / result.attempted, "ratio"),
        "engine.mult_cache_hit_ratio": (t.cache_hit_ratio("_MULT_CACHE"), "ratio"),
        "engine.dim_cache_hit_ratio": (t.cache_hit_ratio("_DIM_CACHE"), "ratio"),
        "engine.degree_cache_hit_ratio": (t.cache_hit_ratio("_DEGREE_CACHE"), "ratio"),
        "quadric.self_s": (t.layer_seconds("quadric"), "s"),
        "quadric.oracle_calls": (t.count("quadric.mult_oracle"), "count"),
        "quadric.sample_s": (t.seconds("quadric.sample_quadric_points"), "s"),
        "weyl.self_s": (t.layer_seconds("weyl"), "s"),
        "cli.self_s": (t.layer_seconds("cli"), "s"),
        "trace.coverage": (covered / result.wall_s, "ratio"),
    }


def run_one(args) -> int:
    import_package()
    from workloads import CheckFailed, load

    workloads = load(HERE / "expected.json")
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    workload = workloads[args.workload]
    src_lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in (SRC / "richmult").glob("*.py"))
    print(f"context: python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"src/richmult {src_lines} lines, seed {args.seed}", file=sys.stderr)
    out_dir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            try:
                inputs = workload.setup(out_dir, args.seed)
            except CheckFailed as exc:
                print(f"{workload.name}: {exc}", file=sys.stderr)
                return 1
            setups.append(perf_counter() - start)
        setup_s = import_seconds() + median(setups)

        if not args.trace:
            with reference.Sampler() as sampler:
                passes = run_passes(workload, inputs, args.seconds, sampler=sampler)
            print(f"{workload.name}: reference-second {median(p.ref_s for p in passes):.3f} s "
                  f"from {len(sampler.samples)} samples", file=sys.stderr)
            metrics = {
                "verified_per_ref_s": (median(p.verified * p.ref_s / p.wall_s for p in passes), "1/ref_s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "verified_frac": (sum(p.verified for p in passes) / sum(p.attempted for p in passes), "ratio"),
            }
        else:
            import tracer as tracing

            passes = run_passes(workload, inputs, args.seconds / 2)
            per_pass = []
            try:
                trace = tracing.install(SRC)
            except tracing.TraceSetupError as exc:
                raise BenchError(str(exc)) from exc
            try:
                traced = run_passes(
                    workload, inputs, args.seconds / 2, on_start=trace.reset,
                    on_pass=lambda result: per_pass.append(layer_metrics(trace, result)),
                )
            finally:
                trace.uninstall()
            metrics = {
                name: (median(p[name][0] for p in per_pass), unit)
                for name, (_, unit) in per_pass[0].items()
            }
            for name, (value, unit) in per_pass[0].items():
                if unit in ("count", "bits") and any(p[name][0] != value for p in per_pass):
                    print(f"{workload.name}: warning: {name} differs between traced passes", file=sys.stderr)
            metrics["trace.overhead"] = (
                median(p.wall_s for p in traced) / median(p.wall_s for p in passes), "ratio")
            passes += traced
            coverage = metrics["trace.coverage"][0]
            print(f"{workload.name}: patched {sum(trace.sites.values())} binding sites of "
                  f"{len(trace.sites)} functions; overhead {metrics['trace.overhead'][0]:.3f}, "
                  f"coverage {coverage:.4f}", file=sys.stderr)
            if coverage < MIN_COVERAGE:
                raise BenchError(f"trace coverage {coverage:.3f} < {MIN_COVERAGE}: a layer is missing")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and not any(p.errors for p in passes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def child(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict | None]:
    """Run one workload in its own process; returns (exit code, result)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode, None


def declared_metrics(trace: int) -> tuple[dict, dict]:
    """BENCHMARK.json and the name -> unit map of one trace mode's metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec, {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    """Every workload of BENCHMARK.json, each round in a seeded order."""
    spec, declared = declared_metrics(args.trace)
    names = [w["name"] for w in spec["workloads"]]
    rng = random.Random(args.seed)
    collected = {name: [] for name in names}
    ok = True
    for round_no in range(args.rounds):
        order = list(names)
        rng.shuffle(order)
        for name in order:
            print(f"round {round_no + 1}: {name}", file=sys.stderr)
            code, result = child(name, args.seed, args.seconds, args.trace)
            if code != 0 or result is None or not result["correct"]:
                ok = False
            if result is not None:
                collected[name].append(result)
    metrics = {}
    attempted = failed = 0
    for name in names:
        for result in collected[name]:
            attempted += result["attempted"]
            failed += result["failed"]
        for metric, unit in declared.items():
            values = [r["metrics"][metric]["value"] for r in collected[name] if metric in r["metrics"]]
            if values:
                metrics[f"{name}.{metric}"] = {"value": median(values), "unit": unit}
                print(f"{name:12s} {metric:32s} {median(values):14.6g} {unit}")
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def check_result(result: dict, declared: dict) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("outputs not correct")
    if set(result["metrics"]) != set(declared):
        problems.append(f"metrics {sorted(set(result['metrics']) ^ set(declared))} missing or extra")
    for name, entry in result["metrics"].items():
        value = entry.get("value")
        if not NAME_RE.fullmatch(name):
            problems.append(f"bad metric name {name!r}")
        if entry.get("unit") != declared.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r}, declared {declared.get(name)!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def run_smoke(args) -> int:
    """Small workloads in both trace modes; checks names, units and results."""
    problems = []
    spec, _ = declared_metrics(0)
    for entry in spec["workloads"]:
        if not NAME_RE.fullmatch(entry["name"]):
            problems.append(f"BENCHMARK.json: bad workload name {entry['name']!r}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not NAME_RE.fullmatch(metric["name"]) or not UNIT_RE.fullmatch(metric["unit"]):
            problems.append(f"BENCHMARK.json: bad name or unit in {metric}")
    for trace in (0, 1):
        _, declared = declared_metrics(trace)
        for workload in ("smoke_fixed_g24", "smoke_quadric_q2", "smoke_hs"):
            code, result = child(workload, args.seed, 0.5, trace)
            if code != 0 or result is None:
                problems.append(f"{workload} --trace {trace}: exit {code}")
                continue
            problems += [f"{workload} --trace {trace}: {p}" for p in check_result(result, declared)]
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"), file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=1, help="rounds of --workload all")
    parser.add_argument("--smoke", action="store_true", help="run the self-test")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            import_package()
            return run_smoke(args)
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            import_package()
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
