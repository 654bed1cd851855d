"""Command-line interface: golden output, exit codes, determinism."""

import json

import pytest

from richmult.cli import main
from richmult.charts import build_chart, parse_ideal
from richmult.localmult import OracleBudgetError
from richmult.weyl import CosetRep, GrassShape

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

    def test_workers_keep_the_callers_budget(self, capsys):
        """A cap above the default budget is accepted by the worker pool as
        it is by the serial path."""
        for workers in ("1", "2"):
            assert main([
                "sweep", "--d", "2", "--n", "4", "--grid=0", "--cap", "300",
                "--workers", workers,
            ]) == 0
            assert capsys.readouterr().out.splitlines()[-1] == "checked=50 agreed=50 failed=0"

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

    def test_small_sweep(self, capsys, tmp_path):
        out = tmp_path / "q.json"
        code = main(["quadric", "--qn", "2", "--cap", "5", "--out", str(out)])
        assert code == 0
        assert "failed=0" in capsys.readouterr().out

    def test_schema_on_quadric_reports(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib.resources import files

        out = tmp_path / "q.json"
        main(["quadric", "--qn", "2", "--cap", "3", "--out", str(out)])
        schema = json.loads(
            files("richmult.schemas").joinpath("report.schema.json").read_text()
        )
        jsonschema.validate(json.loads(out.read_text()), schema)


class TestComputationFailures:
    """Kernel failures exit with status 3 and one stderr line, apart from
    disagreement (1) and bad input (2)."""

    MULT = ["mult", "--d", "2", "--n", "4", "--w", "24", "--v", "12", "--tau", "12"]

    def test_dimension_mismatch_exits_3(self, capsys, monkeypatch):
        from richmult import engine

        monkeypatch.setattr(engine, "ideal_dimension", lambda ideal: -1)
        assert main(self.MULT) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: KernelInconsistencyError: dimension")
        assert err.count("\n") == 1

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
