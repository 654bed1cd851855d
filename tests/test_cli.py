"""Command-line interface: golden output, exit codes, determinism."""

import csv
import hashlib
import io
import json

import pytest

from richmult.cli import main
from richmult.charts import build_chart
from richmult.localmult import OracleBudgetError
from richmult.weyl import CosetRep, GrassShape

from polytext import parse_ideal

DEMO_GOLDEN = """chart tau=256
indices: 1.2 1.5 1.6 3.2 3.5 3.6 4.2 4.5 4.6 7.2 7.5 7.6
schubert w=356 generators=4
x_4_2
x_7_2
x_7_5
x_7_6
opposite v=125 generators=3
x_1_6*x_3_5 - x_1_5*x_3_6
x_1_6*x_4_5 - x_1_5*x_4_6
x_3_6*x_4_5 - x_3_5*x_4_6
richardson generators=7
x_1_6*x_3_5 - x_1_5*x_3_6
x_1_6*x_4_5 - x_1_5*x_4_6
x_3_6*x_4_5 - x_3_5*x_4_6
x_4_2
x_7_2
x_7_5
x_7_6
translated at point:
y_1_6*y_3_5 - y_1_5*y_3_6 + y_1_5 + y_3_5
y_1_6*y_4_5 - y_1_5*y_4_6 + y_4_5
y_3_6*y_4_5 - y_3_5*y_4_6 - y_4_5
y_4_2
y_7_2
y_7_5
y_7_6
"""

DEMO_MATRIX = [
    [1, 0, 1], [1, 0, 0], [0, 0, -1], [0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0],
]


@pytest.fixture
def demo_point_file(tmp_path):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"matrix": DEMO_MATRIX}))
    return str(path)


class TestEquations:
    def test_demo_golden(self, capsys, demo_point_file):
        code = main([
            "equations", "--d", "3", "--n", "7",
            "--w", "356", "--v", "125", "--point", demo_point_file,
        ])
        assert code == 0
        assert capsys.readouterr().out == DEMO_GOLDEN

    @pytest.mark.parametrize("sides,builds", [
        (["--w", "356", "--v", "125"], (2, 1)),
        (["--w", "356"], (1, 0)),
        (["--v", "125"], (1, 1)),
    ])
    def test_each_side_built_once(self, capsys, monkeypatch, demo_point_file, sides, builds):
        """The printed sides are the ones translated and intersected: each
        side is one Schubert ideal built, and an opposite side is one
        relabelled too."""
        from richmult import charts, cli

        calls = {"schubert_ideal": 0, "w0_relabel": 0}
        for name in calls:
            def counted(*args, _build=getattr(charts, name), _name=name):
                calls[_name] += 1
                return _build(*args)

            for module in (charts, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        code = main(["equations", "--d", "3", "--n", "7", *sides, "--point", demo_point_file])
        assert code == 0
        assert (calls["schubert_ideal"], calls["w0_relabel"]) == builds
        if len(sides) == 4:
            assert capsys.readouterr().out == DEMO_GOLDEN

    @pytest.mark.parametrize("args, digest", [
        (["--d", "3", "--n", "7", "--v", "125", "--point", None],
         "482b777b42cccf9dbf0d925686c192c86e69ff443721e8ba69e9562b8cf15a04"),
        (["--d", "2", "--n", "5", "--tau", "24", "--v", "13"],
         "a6d02268a5b2e3406d08f3f70b354ce710ab0ad44cb8b428894cec53fd8af639"),
        (["--d", "2", "--n", "5", "--tau", "45", "--v", "13"],
         "0d8ddbb7a2131454c5a25ad086b74ae57b90ac258096e917e2e604b4e0b09741"),
    ], ids=["G(3,7) demo point", "G(2,5) tau 24", "G(2,5) tau 45"])
    def test_opposite_equations_are_pinned(self, capsys, demo_point_file, args, digest):
        """The printed opposite sides, and their translation to the demo
        point, are the bytes recorded when they were built from minors on
        the chart itself."""
        args = [demo_point_file if a is None else a for a in args]
        assert main(["equations", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_maximal_w_prints_zero_generators(self, capsys):
        code = main(["equations", "--d", "2", "--n", "4", "--tau", "12", "--w", "34"])
        assert code == 0
        out = capsys.readouterr().out
        assert "generators=0" in out

    def test_round_trips_through_parser(self, capsys):
        code = main([
            "equations", "--d", "2", "--n", "5", "--tau", "24", "--w", "35", "--v", "13",
        ])
        assert code == 0
        out = capsys.readouterr().out
        shape = GrassShape(2, 5)
        chart = build_chart(shape, CosetRep(shape, (2, 4)))
        lines = out.splitlines()
        block = lines[lines.index("richardson generators=2") + 1:]
        text = "\n".join(line for line in block if line and "=" not in line and ":" not in line)
        parsed = parse_ideal(chart.ring, text)
        assert [str(g) for g in parsed.gens] == ["x_1_4", "x_5_2"]

    def test_out_file_holds_the_printed_bytes(self, capsys, tmp_path, demo_point_file):
        args = ["equations", "--d", "3", "--n", "7", "--w", "356", "--v", "125",
                "--point", demo_point_file]
        assert main(args) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "equations.txt"
        assert main([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()

    @pytest.mark.parametrize("args", [
        ["equations", "--d", "2", "--n", "4", "--tau", "12", "--w", "34"],
        ["mult", "--d", "2", "--n", "4", "--w", "34", "--v", "12", "--tau", "12"],
    ], ids=["equations", "mult"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, args):
        """Both writers share one path: a directory given as ``--out``
        exits 2 with one error line."""
        assert main([*args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_violated_inequality_reported(self, capsys):
        code = main(["equations", "--d", "2", "--n", "4", "--tau", "24", "--w", "13"])
        assert code == 2
        err = capsys.readouterr().err
        assert "violated" in err and "tau <= w" in err


class TestMult:
    def test_fixed_point_json(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "mult", "--d", "2", "--n", "4", "--w", "24", "--v", "12",
            "--tau", "12", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data[0]["mu_wv_fast"] == 2 and data[0]["agreement"]

    def test_demo_instance(self, capsys, demo_point_file, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "mult", "--d", "3", "--n", "7", "--w", "356", "--v", "125",
            "--point", demo_point_file, "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data[0]["cone_opposite_over_point"] is False
        assert data[0]["cone_schubert_over_point"] is True

    def test_tau_mismatch_rejected(self, capsys, demo_point_file):
        code = main([
            "mult", "--d", "3", "--n", "7", "--w", "356", "--v", "125",
            "--tau", "123", "--point", demo_point_file,
        ])
        assert code == 2

    def test_missing_tau_rejected(self, capsys):
        code = main(["mult", "--d", "2", "--n", "4", "--w", "24", "--v", "12"])
        assert code == 2

    def test_point_off_the_cell_of_tau(self, capsys, tmp_path):
        """A coordinate-map point may be any point of the --tau chart on
        both sides, in the cell or not."""
        point = tmp_path / "off.json"
        point.write_text(json.dumps({"coords": {"2.1": "1"}}))
        code = main([
            "mult", "--d", "2", "--n", "4", "--w", "24", "--v", "12",
            "--tau", "13", "--point", str(point),
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith(
            "mu_w=1 mu_v=1 fast=1 oracle=1 agreement=True\n"
        )

    def test_matrix_entries_read_as_coordinate_values(self, capsys, tmp_path):
        """A JSON float in a matrix is read from its decimal text, as in a
        coordinate map: 0.1 is 1/10, not the binary float nearest it."""
        written = []
        for name, point, tau in (
            ("matrix", {"matrix": [[0.1, 0], [1, 0], [0, 0], [0, 1]]}, []),
            ("coords", {"coords": {"1.2": 0.1}}, ["--tau", "24"]),
        ):
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
            path.write_text(json.dumps(point))
            assert main([
                "mult", "--d", "2", "--n", "4", "--w", "34", "--v", "12", *tau,
                "--point", str(path), "--out", str(out),
            ]) == 0
            written.append(json.loads(out.read_text()))
        assert written[0] == written[1]
        assert written[0][0]["point"]["1.2"] == "1/10"

    def test_triple_not_nested_exits_2(self, capsys):
        code = main(["mult", "--d", "2", "--n", "4", "--w", "34", "--v", "24", "--tau", "13"])
        assert code == 2
        assert capsys.readouterr().err == "error: require v <= tau <= w: 24, 13, 34\n"


class TestSweep:
    def test_summary_and_exit(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "--d", "2", "--n", "4", "--grid=0", "--cap", "1",
            "--workers", "1", "--out", str(out),
        ])
        assert code == 0
        assert "failed=0" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert all(r["agreement"] for r in data)

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main([
                "sweep", "--d", "2", "--n", "4", "--grid=-1,0,1", "--cap", "3",
                "--workers", "1", "--out", str(out),
            ]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("grid, digest", [
        ("-1,0,1", "0344796bbccecc4ac67602fe2a3a5af69e8235714a551232e5f39e668737667d"),
        ("-2,-1,0,1,2", "63ffc8eda4aaab5197b2879aa05c80cf50e9c4c49fa72b6b008b07b51d1cf9fb"),
    ])
    def test_grid_sweep_bytes_are_pinned(self, capsys, tmp_path, grid, digest):
        """The G(2,4) grid sweeps, with several cell points per instance,
        write the bytes recorded before the sweep shared its grid walks and
        side points: any change to the per-point memo or the walk shows."""
        out = tmp_path / "sweep.json"
        assert main([
            "sweep", "--d", "2", "--n", "4", f"--grid={grid}", "--workers", "1",
            "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", [
        (["--d", "2", "--n", "5", "--grid=-1,0,1", "--cap", "50"],
         "0d681475d15682b30bf4aa8ff311bd6e7c3e315fcce93b8745bfa395ab223c9f"),
        (["--d", "3", "--n", "6", "--grid=0", "--cap", "1"],
         "cc7786b83a3c9246d042ac5e9cb440d0d911c02ba43b4e4bd930a8f0d36a3e4a"),
    ], ids=["G(2,5) grid cap 50", "G(3,6) fixed points"])
    def test_pooled_sweep_bytes_are_pinned(self, capsys, tmp_path, args, digest):
        """Two workers, each taking whole w0-orbits of charts, write the
        bytes one worker writes, which are those recorded before opposite
        sides became relabelled Schubert sides."""
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"sweep{workers}.json"
            assert main(["sweep", *args, "--workers", workers, "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert hashlib.sha256(written[1]).hexdigest() == digest

    def test_cap_counts_sampled_points_besides_the_fixed_point(self, capsys, tmp_path):
        """--cap 1 keeps one sampled cell point per instance and reports the
        fixed point besides it: 65 reports over 50 instances, 15 of them
        with 2 (the grid 1,2 has no 0, so no sample is the fixed point)."""
        out = tmp_path / "sweep.json"
        assert main([
            "sweep", "--d", "2", "--n", "4", "--grid=1,2", "--cap", "1", "--workers", "1",
            "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "checked=65 agreed=65 failed=0"
        per_instance: dict = {}
        for r in json.loads(out.read_text()):
            key = r["tau"], r["w"], r["v"]
            per_instance[key] = per_instance.get(key, 0) + 1
        assert sorted(per_instance.values()) == [1] * 35 + [2] * 15

    def test_workers_keep_the_callers_budget(self, capsys):
        """A cap above the default budget is accepted by the worker pool as
        it is by the serial path."""
        for workers in ("1", "2"):
            assert main([
                "sweep", "--d", "2", "--n", "4", "--grid=0", "--cap", "300",
                "--workers", workers,
            ]) == 0
            assert capsys.readouterr().out.splitlines()[-1] == "checked=50 agreed=50 failed=0"

    @pytest.mark.parametrize("option, value, message", [
        ("--max-instances", "-1", "max_instances must not be negative"),
        ("--workers", "0", "workers must be positive"),
        ("--workers", "-1", "workers must be positive"),
    ])
    def test_out_of_range_settings_rejected(self, capsys, option, value, message):
        """Out-of-range settings exit with status 2 instead of being
        clamped or dropping instances."""
        code = main([
            "sweep", "--d", "2", "--n", "4", "--grid=0", "--cap", "1", option, value,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_schema_validation(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib.resources import files

        out = tmp_path / "sweep.json"
        main([
            "sweep", "--d", "2", "--n", "4", "--grid=0", "--cap", "1",
            "--workers", "1", "--out", str(out),
        ])
        schema = json.loads(
            files("richmult.schemas").joinpath("report.schema.json").read_text()
        )
        jsonschema.validate(json.loads(out.read_text()), schema)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main([
            "sweep", "--d", "2", "--n", "4", "--grid=0", "--cap", "1",
            "--workers", "1", "--format", "csv", "--out", str(out),
        ])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("family,d,n,tau,w,v,point,mu_w")
        assert len(lines) > 1


class TestQuadric:
    def test_point_report(self, capsys, tmp_path):
        point = tmp_path / "x.json"
        point.write_text(json.dumps(["1", "0", "0", "0", "0"]))
        out = tmp_path / "q.json"
        code = main([
            "quadric", "--qn", "2", "--i", "4", "--j", "1",
            "--point", str(point), "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data[0]["mu_w"] == 2 and data[0]["agreement"]

    @pytest.mark.parametrize("content", [{"y": ["1", "0", "0", "0", "0"]}, "1", 3])
    def test_point_file_without_coordinates(self, capsys, tmp_path, content):
        point = tmp_path / "x.json"
        point.write_text(json.dumps(content))
        code = main(["quadric", "--qn", "2", "--i", "4", "--j", "1", "--point", str(point)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: point file") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["--i", "4", "--point", "x.json"],
        ["--j", "1", "--point", "x.json"],
        ["--i", "4", "--j", "1"],
        ["--point", "x.json"],
        ["--cap", "0"],
        ["--cap", "-3"],
    ])
    def test_bad_arguments_rejected(self, capsys, args):
        """Incomplete single-point arguments and a cap below 1 exit with
        status 2 instead of running a sweep."""
        assert main(["quadric", "--qn", "2"] + args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_pair_out_of_order_exits_2(self, capsys, tmp_path):
        point = tmp_path / "x.json"
        point.write_text(json.dumps(["1", "0", "0", "0", "0"]))
        code = main(["quadric", "--qn", "2", "--i", "1", "--j", "5", "--point", str(point)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: need j <= i for a nonempty intersection\n"
        assert captured.out == ""

    def test_small_sweep(self, capsys, tmp_path):
        out = tmp_path / "q.json"
        code = main(["quadric", "--qn", "2", "--cap", "5", "--out", str(out)])
        assert code == 0
        assert "failed=0" in capsys.readouterr().out

    def test_thirds_grid_sweep_bytes_are_pinned(self, capsys, tmp_path):
        """A grid whose denominators have lcm 3 writes the bytes recorded
        while the sampler still evaluated Q in ``Fraction``: the integer
        sampler's scaling and every per-sample memo must keep them."""
        out = tmp_path / "q.json"
        assert main([
            "quadric", "--qn", "3", "--grid=-1/3,0,2/3,2", "--cap", "30", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out == "checked=261 agreed=261 failed=0\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e6102d503b2ac2ea1e734a8dc1984c3d56cdf5427ce0317a1630670bfd62dfd0"
        )

    def test_schema_on_quadric_reports(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib.resources import files

        out = tmp_path / "q.json"
        main(["quadric", "--qn", "2", "--cap", "3", "--out", str(out)])
        schema = json.loads(
            files("richmult.schemas").joinpath("report.schema.json").read_text()
        )
        jsonschema.validate(json.loads(out.read_text()), schema)


class TestReportBytes:
    """Outputs no benchmark digest covers, pinned by the bytes written
    while ``--format json`` still went through ``json.dumps(indent=2)``.
    Every point key here has one digit, so string order is chart order."""

    @pytest.mark.parametrize("args, digest", [
        (["mult", "--d", "2", "--n", "4", "--w", "24", "--v", "12", "--tau", "12"],
         "99c57fd869df137cb30db8accb118524be85e28dcfc5cc1d8e10d1a31a903f56"),
        (["sweep", "--d", "2", "--n", "4", "--grid=0", "--cap", "1", "--workers", "1",
          "--format", "csv"],
         "fdf7205e61dc77f1867dd9c99b48ec1a9845864bae2fc317d25a7542f1ab03af"),
        (["sweep", "--d", "2", "--n", "4", "--grid=0", "--cap", "1", "--workers", "1",
          "--format", "text"],
         "c478d76f1d677e28371caed0f925c965aa7e0e6dbb9d545bff8bdc501a9ee46a"),
        (["quadric", "--qn", "2", "--grid=-1,0,1", "--cap", "50", "--format", "csv"],
         "066570423d8bdc3100b9a02bd9cb484fd9859bc855e0ad0bd6c7842011e394cd"),
    ], ids=["mult json", "G(2,4) csv", "G(2,4) text", "quadric n=2 csv"])
    def test_bytes_are_pinned(self, capsys, tmp_path, args, digest):
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_no_reports_write_an_empty_array(self, capsys, tmp_path):
        out = tmp_path / "out.json"
        assert main([
            "sweep", "--d", "2", "--n", "4", "--grid=0", "--cap", "1", "--workers", "1",
            "--max-instances", "0", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == b"[]\n"


@pytest.mark.parametrize("fmt", ["csv", "text"])
@pytest.mark.parametrize("args, first_keys", [
    (["quadric", "--qn", "5", "--grid=0", "--cap", "1"], [f"x{k}" for k in range(1, 12)]),
    (["sweep", "--d", "1", "--n", "11", "--grid=0", "--cap", "1", "--workers", "1"],
     [f"{q}.1" for q in range(2, 12)]),
], ids=["quadric n=5", "G(1,11)"])
def test_flat_points_keep_chart_order(capsys, tmp_path, fmt, args, first_keys):
    """CSV and text write each point's coordinates in the order of its
    JSON report, which is chart order: x1, x2, ..., x10, x11, not x1,
    x10, x11, x2 as a string sort would."""
    json_out, flat_out = tmp_path / "r.json", tmp_path / "r.flat"
    assert main([*args, "--out", str(json_out)]) == 0
    assert main([*args, "--format", fmt, "--out", str(flat_out)]) == 0
    expected = [
        ";".join(f"{k}={v}" for k, v in r["point"].items())
        for r in json.loads(json_out.read_text())
    ]
    if fmt == "csv":
        flat = [row["point"] for row in csv.DictReader(io.StringIO(flat_out.read_text()))]
    else:
        flat = [line.split("point[")[1].split("]")[0]
                for line in flat_out.read_text().splitlines()]
    assert flat == expected
    assert [pair.split("=")[0] for pair in flat[0].split(";")] == first_keys


def reaching_across(build, slice_side=False):
    """The builder ``build``, called as build(chart, rep_or_ideal), with one
    element appended to each kept basis: its first element times the sum
    of the other side's coordinates (the cell coordinates, or the slice
    ones with ``slice_side``).  The variety stays the same, but the basis
    no longer respects the chart's split."""
    from richmult.groebner import PolyIdeal

    def reaching(chart, arg):
        basis = list(build(chart, arg).groebner())
        other = [
            chart.ring.var(i)
            for i, ix in enumerate(chart.indices)
            if (ix in chart.positive) == slice_side
        ]
        if basis and other:
            basis.append(basis[0] * sum(other[1:], other[0]))
        return PolyIdeal.of_basis(chart.ring, basis)

    return reaching


class TestComputationFailures:
    """Kernel failures exit with status 3 and one stderr line, apart from
    disagreement (1) and bad input (2)."""

    MULT = ["mult", "--d", "2", "--n", "4", "--w", "24", "--v", "12", "--tau", "12"]

    def test_dimension_mismatch_exits_3(self, capsys, monkeypatch):
        from dataclasses import replace

        from richmult import engine

        real = engine.ideal_hilbert_data
        monkeypatch.setattr(
            engine, "ideal_hilbert_data",
            lambda ideal, table=None: replace(real(ideal, table), dimension=-1),
        )
        assert main(self.MULT) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: KernelInconsistencyError: dimension")
        assert err.count("\n") == 1

    def test_quadric_smoothness_mismatch_exits_3(self, capsys, monkeypatch):
        from richmult import engine

        monkeypatch.setattr(engine, "_corank", lambda rows, nvars, dim, m: 1)
        assert main(["quadric", "--qn", "2", "--cap", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: KernelInconsistencyError: closed forms")
        assert err.count("\n") == 1

    def test_sides_sharing_a_variable_exit_3(self, capsys, monkeypatch):
        """A Schubert side whose kept basis uses cell coordinates fails the
        chart's split certificate when the side is built.  The patched
        builder keeps the variety (see ``reaching_across``)."""
        from richmult import engine

        monkeypatch.setattr(engine, "schubert_ideal", reaching_across(engine.schubert_ideal))
        assert main(["sweep", "--d", "2", "--n", "4", "--grid=0", "--workers", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: KernelInconsistencyError: the chart of 24 does not split: the Schubert "
            "side of 24 uses the other side's coordinates x_1_2, x_1_4, x_3_4\n"
        )

    def test_sum_of_sides_sharing_a_variable_exit_3(self, capsys, monkeypatch):
        """Without a chart context the same Schubert side reaches the sum of
        the two sides, which refuses bases that share a variable."""
        from richmult import cli

        monkeypatch.setattr(cli, "schubert_ideal", reaching_across(cli.schubert_ideal))
        args = ["equations", "--d", "2", "--n", "4", "--tau", "13", "--w", "24", "--v", "13"]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: RuntimeError: the bases of a sum share the variables x_2_3\n"
        )

    def test_opposite_side_using_slice_coordinates_exits_3(self, capsys, monkeypatch):
        """An opposite side is a relabelled Schubert ideal; a relabelling
        whose kept basis uses slice coordinates fails the chart's split
        certificate when the side is built."""
        from richmult import engine

        monkeypatch.setattr(
            engine, "w0_relabel", reaching_across(engine.w0_relabel, slice_side=True)
        )
        assert main(["sweep", "--d", "2", "--n", "4", "--grid=0", "--workers", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: KernelInconsistencyError: the chart of 24 does not split: the opposite "
            "side of 13 uses the other side's coordinates x_3_2\n"
        )

    def test_mislabelled_slice_exits_3(self, capsys, monkeypatch):
        """A chart whose positive roots name one cell coordinate in place of
        a slice coordinate fails the certificate on the first side that
        uses either."""
        from dataclasses import replace

        from richmult import engine

        def mislabelled(shape, tau):
            chart = build_chart(shape, tau)
            cell = [ix for ix in chart.indices if ix not in chart.positive]
            if not (cell and chart.positive):
                return chart
            return replace(chart, positive=(cell[0],) + chart.positive[1:])

        monkeypatch.setattr(engine, "build_chart", mislabelled)
        assert main(["sweep", "--d", "2", "--n", "4", "--grid=-1,0,1", "--workers", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: KernelInconsistencyError: the chart of 24 does not split: the Schubert "
            "side of 24 uses the other side's coordinates x_3_2\n"
        )

    def test_unit_intersection_of_nested_triple_exits_3(self, capsys, monkeypatch):
        """When v <= tau <= w the fixed point lies on both sides, so a unit
        intersection is a kernel fault, not bad input.  The patched builder
        takes rows j..n instead of j+1..n at the first essential position
        of w, which cuts too much."""
        from richmult import charts, engine
        from richmult.groebner import PolyIdeal, dedupe_normalized, reduced_groebner_basis
        from richmult.weyl import bruhat_leq, descent_positions

        def widened(chart, w):
            if not bruhat_leq(chart.tau, w):
                return PolyIdeal.unit_marker(chart.ring)
            matrix, d = chart.matrix(), chart.shape.d
            gens = []
            for k, j in enumerate(descent_positions(w)):
                bound = d - sum(1 for e in w.entries if e <= j)
                rows = matrix[j - 1:] if k == 0 else matrix[j:]
                gens.extend(charts._minor_generators(rows, bound + 1, chart.ring))
            return PolyIdeal.of_basis(chart.ring, reduced_groebner_basis(dedupe_normalized(gens)))

        monkeypatch.setattr(engine, "schubert_ideal", widened)
        assert main(["sweep", "--d", "2", "--n", "4", "--grid=-1,0,1", "--workers", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: KernelInconsistencyError: empty intersection although v <= tau <= w\n"
        )

    @pytest.mark.parametrize("exc", [
        OracleBudgetError("401 columns exceed the budget of 400"),
        RuntimeError("Hilbert-Samuel function not stabilized"),
    ])
    def test_runtime_failures_exit_3(self, capsys, monkeypatch, exc):
        from richmult import cli

        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, "build_report", fail)
        assert main(self.MULT) == 3
        err = capsys.readouterr().err
        assert err == f"error: {type(exc).__name__}: {exc}\n"


class TestFileErrors:
    """A point file that cannot be read is bad input: status 2 and one
    error line, not a traceback with the disagreement status 1."""

    @pytest.mark.parametrize("args", [
        ["mult", "--d", "2", "--n", "4", "--w", "24", "--v", "12"],
        ["equations", "--d", "2", "--n", "4", "--w", "24"],
        ["quadric", "--qn", "2", "--i", "4", "--j", "1"],
    ])
    def test_missing_point_file_exits_2(self, capsys, tmp_path, args):
        missing = tmp_path / "missing.json"
        assert main(args + ["--point", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(missing) in captured.err
        assert captured.err.count("\n") == 1


class TestInvalidNumbers:
    """A number that names no rational, or a matrix row that is no array,
    is bad input: status 2 and one error line, not a traceback with the
    disagreement status 1."""

    @pytest.mark.parametrize("args, point", [
        (["sweep", "--d", "2", "--n", "4", "--grid=1/0", "--workers", "1"], None),
        (["quadric", "--qn", "2", "--grid=1/0"], None),
        (["mult", "--d", "2", "--n", "4", "--w", "24", "--v", "12", "--tau", "12"],
         {"coords": {"3.1": "1/0"}}),
        (["equations", "--d", "3", "--n", "7", "--w", "356"],
         {"matrix": DEMO_MATRIX[:-1] + [[0, 0, "1/0"]]}),
        (["equations", "--d", "3", "--n", "7", "--w", "356"],
         {"matrix": DEMO_MATRIX[:-1] + [[0, 0, None]]}),
        (["quadric", "--qn", "2", "--i", "4", "--j", "1"], ["1", "0", "1/0", "0", "0"]),
        (["equations", "--d", "3", "--n", "7", "--w", "356"], {"matrix": [1, 0, 1]}),
        (["mult", "--d", "2", "--n", "4", "--w", "34", "--v", "12"],
         {"matrix": [[True, 0], [1, 0], [0, 0], [0, 1]]}),
    ])
    def test_exits_2(self, capsys, tmp_path, args, point):
        if point is not None:
            path = tmp_path / "point.json"
            path.write_text(json.dumps(point))
            args = args + ["--point", str(path)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("key", ["31", "3.x"])
def test_coordinate_key_not_q_dot_p_exits_2(capsys, tmp_path, key):
    """A coordinate key must read q.p with two whole numbers; any other
    key is bad input, and the error names it."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"coords": {key: "1"}}))
    args = ["mult", "--d", "2", "--n", "4", "--w", "24", "--v", "12", "--tau", "12"]
    assert main(args + ["--point", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: coordinate key {key!r} is not of the form q.p\n"


def test_coordinate_not_on_chart_exits_2(capsys, tmp_path):
    """A key of the form q.p that names no coordinate of the chart (1.2 is
    a pivot pair of tau = 12) is bad input, and the error names it."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"coords": {"3.1": "1", "1.2": "1"}}))
    args = ["mult", "--d", "2", "--n", "4", "--w", "24", "--v", "12", "--tau", "12"]
    assert main(args + ["--point", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: indices not on chart: 1.2\n"


@pytest.mark.parametrize("coords", [
    {"2.1": "1", "02.1": "0"},
    {"02.1": "0", "2.1": "1"},
])
def test_coordinate_given_twice_exits_2(capsys, tmp_path, coords):
    """Two keys that name one coordinate are bad input in either order,
    not a point that depends on which key is read last."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"coords": coords}))
    args = ["mult", "--d", "2", "--n", "4", "--w", "24", "--v", "12", "--tau", "13"]
    assert main(args + ["--point", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coordinate 2.1 is given twice\n"


def test_report_fields_match_schema(tmp_path):
    """The dataclass fields are the one field list: JSON keys, CSV columns
    and the schema's required keys all follow it."""
    from dataclasses import fields
    from importlib.resources import files

    from richmult.engine import MultiplicityReport

    schema = json.loads(files("richmult.schemas").joinpath("report.schema.json").read_text())
    names = [f.name for f in fields(MultiplicityReport)]
    assert names == schema["items"]["required"]

    out = tmp_path / "r.csv"
    assert main([
        "mult", "--d", "2", "--n", "4", "--w", "24", "--v", "12", "--tau", "12",
        "--format", "csv", "--out", str(out),
    ]) == 0
    assert out.read_text().splitlines()[0].split(",") == names
