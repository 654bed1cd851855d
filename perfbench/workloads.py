"""The benchmark's workloads: inputs, one cold pass, and its output checks.

Every pass starts cold: the engine's memo tables are cleared (while the
engine still has them) and a full garbage collection runs before the
clock starts.  A CLI workload calls ``cli.main`` in-process with
``--workers 1`` and an ``--out`` file whose sha256 must equal the digest
recorded in ``expected.json`` when the benchmark was defined, so any
change to report bytes fails the pass.  ``hs_oracle``
rebuilds every ideal from its generators' terms, so no memoized basis
carries over from set-up or from an earlier pass.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter


class CheckFailed(RuntimeError):
    """An output check failed before any pass could run."""


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int
    errors: list = field(default_factory=list)
    ref_s: float = 0.0  # wall seconds of one reference-second during the pass

    @property
    def verified(self) -> int:
        return self.attempted - self.failed


def _cold_start(on_start):
    from richmult import engine

    clear = getattr(engine, "clear_caches", None)
    if clear is not None:
        clear()
    gc.collect()
    if on_start is not None:
        on_start()


class CliWorkload:
    """One ``richmult`` CLI invocation per pass."""

    def __init__(self, name: str, argv: list, expected: dict):
        self.name = name
        self.argv = argv
        self.expected = expected

    def setup(self, out_dir: Path, seed: int):
        return list(self.argv) + ["--out", str(out_dir / f"{self.name}.json")]

    def run_pass(self, argv, on_start=None, clock=perf_counter) -> PassResult:
        from richmult import cli

        expected_count = self.expected["verifications"]
        out = Path(argv[-1])
        out.unlink(missing_ok=True)
        _cold_start(on_start)
        captured = io.StringIO()
        start = clock()
        try:
            with redirect_stdout(captured):
                code = cli.main(argv)
        except Exception as exc:  # a raised error fails every verification of the pass
            return PassResult(clock() - start, expected_count, expected_count,
                              [f"{type(exc).__name__}: {exc}"])
        wall = clock() - start

        errors = []
        if code != 0:
            errors.append(f"exit code {code}")
        summary = (captured.getvalue().splitlines() or [""])[-1]
        if summary != f"checked={expected_count} agreed={expected_count} failed=0":
            errors.append(f"summary {summary!r}")
        if not out.exists():
            errors.append("no --out file")
            return PassResult(wall, expected_count, expected_count, errors)
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        reports = json.loads(data)
        disagreed = sum(1 for r in reports if not r["agreement"])
        if len(reports) != expected_count:
            errors.append(f"{len(reports)} reports, expected {expected_count}")
        if digest != self.expected["sha256"]:
            errors.append(f"--out sha256 {digest}, expected {self.expected['sha256']}")
        attempted = max(expected_count, len(reports))
        return PassResult(wall, attempted, attempted if errors else disagreed, errors)


# Criterion 8 of the acceptance suite: the translated Schubert, opposite
# and Richardson ideals of these instances and points.
GRID5 = (-2, -1, 0, 1, 2)
SELECTED_INSTANCES = [
    (2, 5, "35", "12", "13", 200),
    (2, 5, "35", "13", "23", 200),
    (2, 5, "25", "13", "14", 200),
    (3, 6, "146", "124", "134", 200),
    (3, 6, "246", "134", "234", 200),
]
SHOWCASE = (3, 7, "467", "124", "246", 12)
# The worked G(3,7) demo point, with w = 356 and v = 125.
DEMO_MATRIX = [
    (1, 0, 1), (1, 0, 0), (0, 0, -1), (0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0),
]


def _instance_points(shape, w, v, tau, grid, cap):
    from richmult.charts import build_chart, richardson_ideal
    from richmult.engine import sample_points

    chart = build_chart(shape, tau)
    ideal = richardson_ideal(chart, w, v)
    grid = tuple(Fraction(g) for g in grid)
    return [chart.origin()] + [
        p for p in sample_points(ideal, chart, grid, cell_only=True, limit=cap)
        if not p.is_origin()
    ]


def collect_ideals(full: bool) -> list:
    """Distinct translated stratum ideals as (names, order, [terms]) in
    canonical-key order.  ``full`` selects the acceptance set; otherwise
    only the G(2,4) fixed points (the smoke set)."""
    from richmult.charts import (
        build_chart, opposite_ideal, point_from_matrix, richardson_ideal,
        schubert_ideal, translate_to_origin,
    )
    from richmult.engine import enumerate_instances
    from richmult.weyl import GrassShape, parse_coset

    found: dict = {}

    def add_instance(shape, w, v, tau, points):
        chart = build_chart(shape, tau)
        ideals = (schubert_ideal(chart, w), opposite_ideal(chart, v), richardson_ideal(chart, w, v))
        for m in points:
            for ideal in ideals:
                if ideal.is_zero_ideal():
                    continue
                moved = translate_to_origin(ideal, m)
                key = moved.canonical_key()
                if key not in found:
                    found[key] = (moved.ring.names, moved.ring.order,
                                  [dict(g.terms) for g in moved.gens])

    for d, n in ((2, 4), (2, 5)) if full else ((2, 4),):
        shape = GrassShape(d, n)
        for w, v, tau in enumerate_instances(shape):
            add_instance(shape, w, v, tau, [build_chart(shape, tau).origin()])
    if full:
        g24 = GrassShape(2, 4)
        for w, v, tau in enumerate_instances(g24):
            add_instance(g24, w, v, tau, _instance_points(g24, w, v, tau, GRID5, 200))
        for d, n, w, v, tau, cap in SELECTED_INSTANCES + [SHOWCASE]:
            shape = GrassShape(d, n)
            w, v, tau = (parse_coset(shape, t) for t in (w, v, tau))
            grid = GRID5 if cap == 200 else (-1, 0, 1)
            add_instance(shape, w, v, tau, _instance_points(shape, w, v, tau, grid, cap))
        shape = GrassShape(3, 7)
        m = point_from_matrix(shape, DEMO_MATRIX)
        add_instance(shape, parse_coset(shape, "356"), parse_coset(shape, "125"), m.chart.tau, [m])
    return [found[key] for key in sorted(found)]


class OracleWorkload:
    """Hilbert-Samuel series against the tangent-cone degree on every
    distinct translated ideal; one verification per ideal."""

    def __init__(self, name: str, full: bool, expected: dict):
        self.name = name
        self.full = full
        self.expected = expected
        self._rng = None

    def setup(self, out_dir: Path, seed: int):
        self._rng = random.Random(seed)
        ideals = collect_ideals(self.full)
        if len(ideals) != self.expected["verifications"]:
            raise CheckFailed(
                f"{self.name}: collected {len(ideals)} distinct ideals, "
                f"expected {self.expected['verifications']}"
            )
        return ideals

    def run_pass(self, ideals, on_start=None, clock=perf_counter) -> PassResult:
        from richmult.groebner import PolyIdeal
        from richmult.hilbert import ideal_dimension
        from richmult.localmult import (
            OracleBudgetError, hilbert_samuel_multiplicity, multiplicity_at_origin,
        )
        from richmult.poly import Polynomial, PolyRing

        order = list(range(len(ideals)))
        self._rng.shuffle(order)
        results = [None] * len(ideals)
        failed = 0
        errors = []
        _cold_start(on_start)
        start = clock()
        for i in order:
            names, term_order, gens = ideals[i]
            ring = PolyRing(names, term_order)
            ideal = PolyIdeal(ring, [Polynomial(ring, dict(t)) for t in gens])
            try:
                dim = ideal_dimension(ideal)
                fitted = hilbert_samuel_multiplicity(ideal, dim)
                mu = multiplicity_at_origin(ideal)
            except OracleBudgetError as exc:
                failed += 1
                errors.append(f"ideal {i}: budget skip: {exc}")
                continue
            except Exception as exc:  # counted as a failed verification
                failed += 1
                errors.append(f"ideal {i}: {type(exc).__name__}: {exc}")
                continue
            if fitted != mu:
                failed += 1
                errors.append(f"ideal {i}: Hilbert-Samuel {fitted} != tangent cone {mu}")
            results[i] = (dim, mu)
        wall = clock() - start

        text = "".join(f"{i} {r[0]} {r[1]}\n" for i, r in enumerate(results) if r)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != self.expected["sha256"]:
            errors.append(f"result sha256 {digest}, expected {self.expected['sha256']}")
            failed = len(ideals)
        return PassResult(wall, len(ideals), failed, errors)


def load(expected_path: Path) -> dict:
    """All workloads by name; ``smoke_*`` ones are small variants for the
    benchmark's own tests and are not part of BENCHMARK.json."""
    expected = json.loads(expected_path.read_text(encoding="utf-8"))
    sweep = ["sweep", "--workers", "1"]
    table = [
        CliWorkload("grid_g25", sweep + ["--d", "2", "--n", "5", "--grid=-1,0,1", "--cap", "50"],
                    expected["grid_g25"]),
        CliWorkload("fixed_g36", sweep + ["--d", "3", "--n", "6", "--grid=0", "--cap", "1"],
                    expected["fixed_g36"]),
        CliWorkload("quadric_q4", ["quadric", "--qn", "4", "--grid=-2,-1/2,0,1,3/2", "--cap", "200"],
                    expected["quadric_q4"]),
        OracleWorkload("hs_oracle", True, expected["hs_oracle"]),
        CliWorkload("smoke_fixed_g24", sweep + ["--d", "2", "--n", "4", "--grid=0", "--cap", "1"],
                    expected["smoke_fixed_g24"]),
        CliWorkload("smoke_quadric_q2", ["quadric", "--qn", "2", "--grid=-1,0,1", "--cap", "50"],
                    expected["smoke_quadric_q2"]),
        OracleWorkload("smoke_hs", False, expected["smoke_hs"]),
    ]
    return {w.name: w for w in table}
