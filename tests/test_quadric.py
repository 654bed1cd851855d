"""Odd-quadric strata: closed forms, singular loci, the b-matrix."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from richmult import engine, quadric
from richmult.charts import translate_to_origin
from richmult.cli import main
from richmult.engine import ChartContext, KernelInconsistencyError, StratumInstance
from richmult.groebner import PolyIdeal, reduced_groebner_basis
from richmult.localmult import multiplicity_at_origin
from richmult.poly import PolyRing
from richmult.quadric import (
    QuadricIndex,
    QuadricMembershipError,
    QuadricShape,
    check_index_pair,
    check_schubert_index,
    quadric_report,
    quadric_sweep,
    sample_quadric_points,
)

import paper_statements
from paper_statements import (
    b_matrix,
    mult_opposite_quadric,
    mult_schubert_quadric,
    opposite_member,
    q_eval,
    schubert_member,
    singular_locus_index,
    singular_locus_opposite_index,
    verify_b_matrix,
    verify_disjoint_sing,
)


def unit(shape, k):
    return tuple(Fraction(int(a == k)) for a in range(1, shape.ncoords + 1))


def random_cell_point(shape, i, rng):
    """Cell form [x_1 : .. : x_{i-1} : 1 : 0 : ..] with Q = 0: for low i the
    form vanishes identically on the window; for high i solve the single
    linear occurrence of the mirror coordinate."""
    n, N = shape.n, shape.ncoords
    vec = [Fraction(0)] * N
    vec[i - 1] = Fraction(1)
    for a in range(1, i):
        vec[a - 1] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
    if i > n + 1:
        mirror = 2 * n + 2 - i
        vec[mirror - 1] = Fraction(0)
        rest = q_eval(shape, vec)
        vec[mirror - 1] = -rest / 2
    assert q_eval(shape, vec) == 0
    return tuple(vec)


class TestForm:
    def test_first_unit_vector_is_isotropic(self):
        shape = QuadricShape(3)
        assert q_eval(shape, unit(shape, 1)) == 0

    def test_middle_unit_vector_is_not(self):
        shape = QuadricShape(3)
        assert q_eval(shape, unit(shape, 4)) == 1

    def test_pairing_coefficient(self):
        shape = QuadricShape(2)
        for c in (Fraction(0), Fraction(3), Fraction(-1, 2)):
            assert q_eval(shape, (1, 0, 0, 0, c)) == 2 * c

    def test_invalid_index(self):
        shape = QuadricShape(2)
        with pytest.raises(ValueError):
            check_schubert_index(shape, 3)
        with pytest.raises(ValueError):
            check_schubert_index(shape, 6)
        check_schubert_index(shape, 5)


class TestMembership:
    def test_unit_vectors(self):
        shape = QuadricShape(2)
        assert schubert_member(shape, 1, unit(shape, 1))
        assert not schubert_member(shape, 1, unit(shape, 2))
        assert not schubert_member(shape, 4, unit(shape, 5))

    def test_constructed_null_vector(self):
        shape = QuadricShape(3)
        rng = random.Random(2)
        for i in (2, 5, 6, 7):
            x = random_cell_point(shape, i, rng)
            assert schubert_member(shape, i, x)

    def test_opposite(self):
        shape = QuadricShape(2)
        assert opposite_member(shape, 5, unit(shape, 5))
        assert not opposite_member(shape, 2, unit(shape, 1))


class TestClosedForms:
    def test_low_window_always_smooth(self):
        shape = QuadricShape(3)
        rng = random.Random(8)
        for i in (1, 2, 3):
            for _ in range(5):
                x = random_cell_point(shape, i, rng)
                assert mult_schubert_quadric(shape, i, x) == 1

    def test_singular_case(self):
        shape = QuadricShape(2)
        assert mult_schubert_quadric(shape, 4, unit(shape, 1)) == 2

    def test_window_escape_gives_one(self):
        shape = QuadricShape(2)
        x = (Fraction(-1, 2), Fraction(-1, 2), Fraction(-1), Fraction(1), Fraction(0))
        assert q_eval(shape, x) == 0
        assert mult_schubert_quadric(shape, 4, x) == 1
        assert quadric_report(shape, 4, 1, x).mu_wv_oracle == 1

    def test_membership_enforced(self):
        shape = QuadricShape(2)
        with pytest.raises(QuadricMembershipError):
            mult_schubert_quadric(shape, 2, unit(shape, 5))

    def test_opposite_mirror(self):
        shape = QuadricShape(2)
        assert mult_opposite_quadric(shape, 5, unit(shape, 5)) == 1
        assert mult_opposite_quadric(shape, 2, unit(shape, 5)) == 2
        assert mult_opposite_quadric(shape, 2, (0, 1, 2, -2, 0)) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_agreement_on_grid(self, n):
        shape = QuadricShape(n)
        valid = [k for k in range(1, shape.ncoords + 1) if k != n + 1]
        for i in valid:
            for x in sample_quadric_points(shape, i, 1, (-1, 0, 1), limit=25):
                report = quadric_report(shape, i, 1, x)
                assert mult_schubert_quadric(shape, i, x) == report.mu_wv_oracle
        for j in valid:
            for x in sample_quadric_points(shape, shape.ncoords, j, (-1, 0, 1), limit=25):
                top = quadric_report(shape, shape.ncoords, j, x)
                assert mult_opposite_quadric(shape, j, x) == top.mu_wv_oracle


class TestSingularLocus:
    def test_smooth_range_empty(self):
        shape = QuadricShape(3)
        assert singular_locus_index(shape, 2) is None

    def test_formula(self):
        shape = QuadricShape(3)
        assert singular_locus_index(shape, 6) == 1
        assert singular_locus_opposite_index(shape, 2) == 7

    @pytest.mark.parametrize("n", [2, 3])
    def test_jacobian_criterion_agreement(self, n):
        """Gradient of the restricted form vanishes exactly on the stratum
        named by the closed-form singular locus."""
        shape = QuadricShape(n)
        N = shape.ncoords
        valid = [k for k in range(1, N + 1) if k != n + 1]
        for i in valid:
            if i < n + 1:
                # The restricted form vanishes identically: the stratum is a
                # projective space, smooth, and the named locus is empty.
                assert singular_locus_index(shape, i) is None
                continue
            sing = singular_locus_index(shape, i)
            for combo in product((-1, 0, 1), repeat=i):
                x = tuple(Fraction(c) for c in combo) + (Fraction(0),) * (N - i)
                if all(c == 0 for c in x) or q_eval(shape, x) != 0:
                    continue
                # gradient of Q(x_1..x_i,0..0): d/dx_b = 2*x_{2n+2-b} when
                # the mirror lies inside the window, 2*x_{n+1} at the middle.
                grad = []
                for b in range(1, i + 1):
                    mirror = 2 * n + 2 - b
                    if b == n + 1:
                        grad.append(2 * x[n])
                    elif mirror <= i:
                        grad.append(2 * x[mirror - 1])
                    else:
                        grad.append(Fraction(0))
                jac_singular = all(g == 0 for g in grad)
                named_singular = sing is not None and schubert_member(shape, sing, x)
                assert jac_singular == named_singular
                assert jac_singular == (mult_schubert_quadric(shape, i, x) == 2)


class TestBMatrix:
    def test_fixed_point_gives_identity(self):
        shape = QuadricShape(3)
        for i in (2, 5, 7):
            b = b_matrix(shape, i, unit(shape, i))
            N = shape.ncoords
            assert b == [
                [Fraction(int(r == c)) for c in range(N)] for r in range(N)
            ]

    @pytest.mark.parametrize("n", [2, 3])
    def test_postconditions_on_random_null_points(self, n):
        shape = QuadricShape(n)
        rng = random.Random(100 + n)
        valid = [k for k in range(1, shape.ncoords + 1) if k != n + 1]
        for i in valid:
            for _ in range(20):
                x = random_cell_point(shape, i, rng)
                assert verify_b_matrix(shape, i, x)

    def test_rejects_unnormalized(self):
        shape = QuadricShape(2)
        with pytest.raises(ValueError):
            b_matrix(shape, 4, (0, 0, 0, 2, 0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_planted_corner_entry_fails(self, monkeypatch, n):
        """An upper-triangular b with column i = x and a unit diagonal, off
        the form only through its corner entry, fails the check."""
        shape = QuadricShape(n)
        i = shape.ncoords - 1
        x = random_cell_point(shape, i, random.Random(n))
        real = paper_statements.b_matrix

        def planted(*args):
            b = real(*args)
            b[0][shape.ncoords - 1] += 1
            return b

        assert verify_b_matrix(shape, i, x)
        monkeypatch.setattr(paper_statements, "b_matrix", planted)
        assert not verify_b_matrix(shape, i, x)


class TestDisjointSingularLoci:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_index_pairs(self, n):
        shape = QuadricShape(n)
        valid = [k for k in range(1, shape.ncoords + 1) if k != n + 1]
        for i in valid:
            for j in valid:
                if j <= i:
                    assert verify_disjoint_sing(shape, i, j)

    def test_grid_check(self):
        shape = QuadricShape(2)
        assert verify_disjoint_sing(shape, 5, 2, grid=(-1, 0, 1))

    def test_precondition(self):
        shape = QuadricShape(2)
        with pytest.raises(ValueError):
            verify_disjoint_sing(shape, 2, 4)


class TestIndexPair:
    """Every entry point that takes a pair (i, j) checks it once, with
    ``check_index_pair``: both indices name strata, and j <= i."""

    def test_valid_pairs(self):
        shape = QuadricShape(2)
        for i, j in [(1, 1), (5, 1), (4, 2), (5, 5)]:
            assert check_index_pair(shape, i, j) is None

    @pytest.mark.parametrize("indices", [{"i": 3}, {"i": 9}, {"j": 0}, {"i": 2, "j": 3}])
    def test_oracle_rejects_indices_naming_no_stratum(self, indices):
        """A missing i is the whole quadric's 2n+1, a missing j its 1."""
        shape = QuadricShape(2)
        i, j = indices.get("i", shape.ncoords), indices.get("j", 1)
        with pytest.raises(ValueError, match="index must lie in"):
            quadric_report(shape, i, j, unit(shape, 1))

    @pytest.mark.parametrize("call", [
        lambda shape, x: quadric_report(shape, 1, 5, x),
        lambda shape, x: verify_disjoint_sing(shape, 1, 5),
        lambda shape, x: sample_quadric_points(shape, 1, 5, (-1, 0, 1)),
    ], ids=["quadric_report", "verify_disjoint_sing", "sample_quadric_points"])
    def test_pair_out_of_order_rejected(self, call):
        shape = QuadricShape(2)
        with pytest.raises(ValueError, match="need j <= i"):
            call(shape, unit(shape, 1))


class TestRichardson:
    def test_smooth_times_smooth(self):
        shape = QuadricShape(2)
        x = (0, 1, 2, -2, 0)
        report = quadric_report(shape, 4, 2, x)
        assert report.mu_wv_fast == report.mu_wv_oracle == 1

    def test_singular_on_one_side(self):
        shape = QuadricShape(2)
        x = unit(shape, 1)
        report = quadric_report(shape, 4, 1, x)
        assert (report.mu_w, report.mu_v) == (2, 1)
        assert report.mu_wv_fast == report.mu_wv_oracle == 2

    def test_never_four_across_sweep(self):
        shape = QuadricShape(2)
        for r in quadric_sweep(shape, grid=(-1, 0, 1), cap=20):
            assert r.mu_wv_fast <= 2
            assert r.agreement

    def test_sweep_builds_each_chart_ring_once(self, monkeypatch):
        """The chart rings, and the ideals on them, are built once per
        T-fixed chart for the whole sweep, not once per report: one ring
        pair (chart and translated coordinates) per e_c, c != n+1."""
        built = []

        def counted(names, *args):
            ring = PolyRing(names, *args)
            built.append(ring.names)
            return ring

        monkeypatch.setattr(quadric, "PolyRing", counted)
        shape = QuadricShape(2)
        assert len(quadric_sweep(shape)) == 44
        assert len(built) == len(set(built)) == 2 * (shape.ncoords - 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_kept_bases_are_the_translated_ideals_bases(self, n):
        """At every report point the two translated sides and the oracle's
        ideal, their sum, keep the reduced basis of their translated
        generators, and the sum has the translated intersection's basis."""
        shape, contexts = QuadricShape(n), {}
        reports = quadric_sweep(shape)
        assert any(sum(c != "0" for c in r.point.values()) > 1 for r in reports)
        for r in reports:
            i, j = int(r.w), int(r.v)
            vec = tuple(Fraction(r.point[f"x{k}"]) for k in range(1, shape.ncoords + 1))
            m = quadric._point(shape, contexts, i, j, vec)[1]
            inst = quadric._instance(shape, contexts, i, j, m)
            oracle = inst.oracle_ideal(m)
            for moved in (inst.side_w.at(m).moved, inst.side_v.at(m).moved, oracle):
                expected = reduced_groebner_basis(moved.gens)
                assert [str(g) for g in moved.groebner()] == [str(g) for g in expected]
            direct = translate_to_origin(inst.iwv, m)
            assert [g.terms for g in oracle.groebner()] == [g.terms for g in direct.groebner()]

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_takes_one_multiplicity(self, n):
        """At every report point the engine's oracle value is one
        multiplicity, that of the intersection translated to the point."""
        shape, contexts = QuadricShape(n), {}
        for r in quadric_sweep(shape):
            i, j = int(r.w), int(r.v)
            vec = tuple(Fraction(r.point[f"x{k}"]) for k in range(1, shape.ncoords + 1))
            m = quadric._point(shape, contexts, i, j, vec)[1]
            inst = quadric._instance(shape, contexts, i, j, m)
            value = multiplicity_at_origin(translate_to_origin(inst.iwv, m))
            assert value == inst.at(m)[2] == r.mu_wv_oracle

    def test_no_basis_run_on_a_translated_ideal(self, monkeypatch):
        """In a sweep Buchberger runs for Schubert side builds, once per
        pair c <= i of a chart and a stratum (21 for n = 3), and for
        tangent cones only: no opposite side, intersection or translated
        ideal computes a basis."""
        from richmult import groebner, localmult

        calls = {module: [] for module in ("quadric", "groebner", "localmult")}
        real = groebner.reduced_groebner_basis
        for module in (quadric, groebner, localmult):
            def counted(gens, _runs=calls[module.__name__.rsplit(".", 1)[1]]):
                _runs.append(gens)
                return real(gens)

            monkeypatch.setattr(module, "reduced_groebner_basis", counted, raising=False)
        assert len(quadric_sweep(QuadricShape(3))) > 0
        assert calls["groebner"] == []
        assert len(calls["quadric"]) == 21 and calls["localmult"]

    def test_sweep_samples_each_j_once(self, monkeypatch):
        """The grid is walked once per opposite index j (4 for n = 2), not
        once per pair j <= i (10)."""
        calls = []
        sample = quadric.sample_quadric_points

        def counted(shape, i, j, *args, **kwargs):
            calls.append(j)
            return sample(shape, i, j, *args, **kwargs)

        monkeypatch.setattr(quadric, "sample_quadric_points", counted)
        quadric_sweep(QuadricShape(2), cap=5)
        assert calls == [1, 2, 4, 5]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("cap", [1, 3, 7, 50])
    def test_sweep_points_are_the_pairs_samples(self, monkeypatch, n, cap):
        """Filtering the (2n+1, j) samples by last nonzero coordinate gives
        the samples of every (i, j), in order, whatever the cap cuts."""
        monkeypatch.setattr(quadric, "_report", lambda shape, inst, i, j, vec, m, point: (i, j, vec))
        shape, grid = QuadricShape(n), (-1, 0, 1)
        valid = [k for k in range(1, shape.ncoords + 1) if k != n + 1]
        expected = [
            (i, j, x)
            for i in valid
            for j in valid
            if j <= i
            for x in sample_quadric_points(shape, i, j, grid, cap)
        ]
        assert quadric_sweep(shape, grid, cap) == expected

    def test_sweep_checks_each_sample_once(self, capsys, monkeypatch):
        """``quadric --qn 2`` builds one chart point per sample drawn, not
        one per report: each sample is checked once, for its j.  The index
        pair is checked once per sample and once per j by the sampler."""
        drawn, built, pairs = [], [], []
        sample, point = quadric.sample_quadric_points, quadric.AffinePoint
        check = quadric.check_index_pair

        def sampled(*args, **kwargs):
            points = sample(*args, **kwargs)
            drawn.extend(points)
            return points

        def counted(chart, coords):
            built.append(coords)
            return point(chart, coords)

        def checked(shape, i, j):
            pairs.append((i, j))
            return check(shape, i, j)

        monkeypatch.setattr(quadric, "sample_quadric_points", sampled)
        monkeypatch.setattr(quadric, "AffinePoint", counted)
        monkeypatch.setattr(quadric, "check_index_pair", checked)
        assert main(["quadric", "--qn", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "checked=44 agreed=44 failed=0"
        assert len(built) == len(drawn) < 44
        assert len(pairs) == len(drawn) + 4

    def test_smoothness_comes_from_the_jacobian(self, monkeypatch):
        """smooth_* is a Jacobian corank, checked against the closed forms:
        a corank that contradicts them raises."""
        shape = QuadricShape(2)
        report = quadric_report(shape, 4, 1, unit(shape, 1))
        assert (report.smooth_w, report.smooth_v, report.smooth_wv) == (False, True, False)
        monkeypatch.setattr(engine, "_corank", lambda rows, nvars, dim, m: 1)
        with pytest.raises(KernelInconsistencyError, match="Jacobian smoothness"):
            quadric_report(shape, 4, 1, unit(shape, 1))

    def test_report_checks_indices_and_membership(self):
        shape = QuadricShape(2)
        with pytest.raises(ValueError):
            quadric_report(shape, 3, 1, unit(shape, 1))
        with pytest.raises(ValueError, match="need j <= i"):
            quadric_report(shape, 2, 4, unit(shape, 1))
        with pytest.raises(QuadricMembershipError):
            quadric_report(shape, 4, 2, unit(shape, 1))
        with pytest.raises(ValueError, match="cannot be zero"):
            quadric_report(shape, 4, 1, (0, 0, 0, 0, 0))

    def test_report_schema_fields(self):
        shape = QuadricShape(2)
        report = quadric_report(shape, 4, 1, unit(shape, 1))
        data = report.to_dict()
        assert data["family"] == "quadric"
        assert data["mu_wv_fast"] == report.mu_w * report.mu_v
        assert data["deg_zw"] is None


def valid_indices(shape):
    return [k for k in range(1, shape.ncoords + 1) if k != shape.n + 1]


def direct_opposite_ideal(chart, j):
    """X^j built on the chart of e_c itself: the x_a with a < j and, when
    c' < j, Q at x_c = 1 and x_{c'} = 0 with those x_a set to 0.  The
    reference for the opposite side, a relabelled Schubert side."""
    ring, n, c = chart.ring, chart.shape.n, chart.tau.k
    if j > c:
        return PolyIdeal.unit_marker(ring)
    x = [ring.zero()] * chart.shape.ncoords
    x[c - 1] = ring.one()
    gens = []
    for pos, ix in enumerate(chart.indices):
        if ix.q < j:
            gens.append(ring.var(pos))
        else:
            x[ix.q - 1] = ring.var(pos)
    if 2 * n + 2 - c < j:
        gens.append(quadric._form(n, x))
    return PolyIdeal.of_basis(ring, reduced_groebner_basis([g for g in gens if not g.is_zero()]))


def opposite_mismatches(shape):
    """The (c, j) on which the engine's opposite side and the direct
    builder differ in generators (terms, in order) or kept basis, or on
    which the side fails the chart's split certificate."""
    bad = []
    for c in valid_indices(shape):
        context = ChartContext(shape, QuadricIndex(shape, c))
        for j in valid_indices(shape):
            try:
                got = context.side(QuadricIndex(shape, j), "opposite").ideal
            except KernelInconsistencyError:
                bad.append((c, j))
                continue
            want = direct_opposite_ideal(context.chart, j)
            if [g.terms for g in got.gens] != [g.terms for g in want.gens] or [
                g.terms for g in got.groebner()
            ] != [g.terms for g in want.groebner()]:
                bad.append((c, j))
    return bad


class TestEngineFamily:
    """The quadric reports through the engine on its T-fixed charts."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_relabelled_opposite_side_equals_direct_builder(self, n):
        assert opposite_mismatches(QuadricShape(n)) == []

    def test_transposed_relabelling_is_caught(self, monkeypatch):
        real = quadric.w0_relabel

        def transposed(chart, ideal):
            source = list(range(chart.ring.nvars))
            source[0], source[1] = source[1], source[0]
            return real(chart, ideal).permuted(source, chart.ring)

        monkeypatch.setattr(quadric, "w0_relabel", transposed)
        bad = opposite_mismatches(QuadricShape(2))
        # On the chart of e_5 the swap keeps the split: the comparison
        # catches it there, and the certificate catches it on others.
        assert (5, 2) in bad and (2, 2) in bad

    def test_schubert_side_using_cell_coordinates_exits_3(self, capsys, monkeypatch):
        """A Schubert side whose kept basis also uses a cell coordinate
        (its first element times the sum of the cell coordinates is
        appended; the variety stays) fails the chart's split certificate."""
        real = quadric.schubert_ideal

        def reaching(chart, w):
            basis = list(real(chart, w).groebner())
            cell = [chart.ring.var(pos) for pos, ix in enumerate(chart.indices)
                    if ix not in chart.positive]
            if basis and cell:
                basis.append(basis[0] * sum(cell[1:], cell[0]))
            return PolyIdeal.of_basis(chart.ring, basis)

        monkeypatch.setattr(quadric, "schubert_ideal", reaching)
        assert main(["quadric", "--qn", "2", "--cap", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: KernelInconsistencyError: the chart of 2 does not split: the Schubert "
            "side of 2 uses the other side's coordinates x_1_2\n"
        )

    def test_wrong_closed_form_exits_3(self, capsys, monkeypatch):
        """A closed form that reads 1 everywhere contradicts the sides'
        tangent-cone multiplicities where a stratum is singular."""
        monkeypatch.setattr(quadric, "_window_mult", lambda vec, lo, hi: 1)
        assert main(["quadric", "--qn", "2", "--cap", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: KernelInconsistencyError: closed forms mu_i=1, mu_j=1 contradict the "
            "sides' multiplicities 2, 1"
        )
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dimensions_hold_on_every_instance(self, n):
        """On every chart e_c and every pair j <= c <= i the Groebner
        dimensions of X_i, X^j and their intersection are the lengths':
        l(k) = k - 1 up to n and k - 2 above, in a quadric of dimension
        2n - 1."""
        shape = QuadricShape(n)
        length = {k: k - 1 if k <= n else k - 2 for k in valid_indices(shape)}
        checked = 0
        for c in valid_indices(shape):
            context = ChartContext(shape, QuadricIndex(shape, c))
            for i in valid_indices(shape):
                for j in valid_indices(shape):
                    if j <= c <= i:
                        inst = StratumInstance(context, QuadricIndex(shape, i), QuadricIndex(shape, j))
                        expected = (length[i], 2 * n - 1 - length[j], length[i] - length[j])
                        assert inst.dimensions == expected
                        checked += 1
        assert checked == len(length) * (len(length) + 1) * (len(length) + 2) // 6

    def test_sweep_rejects_repeated_grid_values(self):
        shape = QuadricShape(2)
        with pytest.raises(ValueError, match="grid values must be distinct"):
            sample_quadric_points(shape, 5, 1, (0, 0, 1), limit=100)
        with pytest.raises(ValueError, match="grid values must be distinct"):
            quadric_sweep(shape, grid=(0, 0, 1))
        assert len(quadric_sweep(shape, grid=(0, 1))) == 30


def fraction_sampler(shape, i, j, grid, limit=100):
    """The sampler as it was while it evaluated Q in ``Fraction``: every
    candidate has x_c = 1 and the grid's values.  The reference for the
    integer sampler."""
    grid = tuple(map(Fraction, grid))
    out = []
    zero = (Fraction(0),)
    for c in range(j, i + 1):
        for combo in product(grid, repeat=c - j):
            vec = zero * (j - 1) + combo + (Fraction(1),) + zero * (shape.ncoords - c)
            if quadric._form(shape.n, vec) == 0:
                out.append(vec)
                if len(out) >= limit:
                    return out
    return out


def unscaled_last_coordinate_sampler(shape, i, j, grid, limit=100):
    """A planted fault: the integer sampler with the grid scaled by D but
    x_c kept at 1, so it tests Q at the wrong point whenever D > 1."""
    from math import lcm

    grid = tuple(map(Fraction, grid))
    scale = lcm(*(g.denominator for g in grid))
    out = []
    for c in range(j, i + 1):
        for combo in product([g * scale for g in grid], repeat=c - j):
            scaled = (0,) * (j - 1) + combo + (1,) + (0,) * (shape.ncoords - c)
            if quadric._form(shape.n, scaled) == 0:
                out.append(tuple(Fraction(v) / scale for v in scaled[:c - 1]) + scaled[c - 1:])
                if len(out) >= limit:
                    return out
    return out


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def assert_is_the_fraction_sampler(sampler):
    """Compare with the reference on every index pair j <= i of shapes
    n = 1..4, caps 1..60 and grids of 1..3 distinct rationals with
    denominators 1..6, negative values and 0 among them.  The explicit
    example has a point that the integer form must scale to find:
    (-1/2, 1, 1) on X_3 of n = 1, tested as (-1, 2, 2)."""

    @settings(max_examples=100, deadline=None, database=None)
    @example(1, [Fraction(-1, 2), Fraction(1)], 60)
    @given(st.integers(1, 4), st.lists(rationals, min_size=1, max_size=3, unique=True),
           st.integers(1, 60))
    def check(n, grid, cap):
        shape = QuadricShape(n)
        for i, j in product(valid_indices(shape), repeat=2):
            if j <= i:
                assert sampler(shape, i, j, grid, cap) == fraction_sampler(shape, i, j, grid, cap)

    check()


class TestIntegerSampler:
    def test_same_points_as_the_fraction_sampler(self):
        """Scaling by the lcm of the grid's denominators keeps the points
        and their order, whatever the grid, the pair and the cap."""
        assert_is_the_fraction_sampler(sample_quadric_points)

    def test_unscaled_last_coordinate_is_caught(self):
        with pytest.raises(AssertionError):
            assert_is_the_fraction_sampler(unscaled_last_coordinate_sampler)

    def test_points_are_the_grids_fractions(self):
        shape = QuadricShape(3)
        points = sample_quadric_points(shape, 7, 1, ("-1/3", 0, "2/3", 2), limit=30)
        assert points == fraction_sampler(shape, 7, 1, (Fraction(-1, 3), 0, Fraction(2, 3), 2), 30)
        assert len(points) == 30
        assert all(type(v) is Fraction for x in points for v in x)

    def test_point_off_the_quadric_from_the_sampler_exits_2(self, capsys, monkeypatch):
        """The sweep checks Q(x) = 0 on every sample, as a point of X_{2n+1}
        and X^j: a sampler that hands it a point off the quadric stops it
        with the membership error."""
        sample = quadric.sample_quadric_points

        def planted(shape, i, j, grid, limit):
            off = (Fraction(1), 0, 0, 0, Fraction(1))
            return sample(shape, i, j, grid, limit) + ([off] if j == 1 else [])

        monkeypatch.setattr(quadric, "sample_quadric_points", planted)
        assert main(["quadric", "--qn", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: point is not on X_5 and X^1\n"

