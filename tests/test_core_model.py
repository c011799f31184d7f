import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influence_gate.core_model import (
    MMData,
    MomentIndexReport,
    MomentVerdict,
    RegressionData,
    VerdictTag,
    load_csv,
)
from influence_gate.cli import _deletion, write_csv_report
from influence_gate.errors import DataError

from conftest import model_inputs

MM_COLUMNS = ["concentration", "velocity"]


class TestLoadCsv:
    def test_puromycin_bundle(self, puromycin_path):
        _, data, _ = model_inputs({"model": "mm", "data": puromycin_path})
        assert isinstance(data, MMData)
        assert data.n == 11
        assert data.concentration[0] == 0.02
        assert data.velocity[0] == 67

    def test_duplicate_constant_columns_rank_deficient(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("y,a,b\n1,2,2\n2,2,2\n3,2,2\n")
        config = {"model": "linear", "data": p, "data.covariates": "a, b", "data.intercept": "false"}
        with pytest.raises(DataError, match=r"^design matrix is rank deficient: singular value "
                                            r"ratio \S+ below 1e-10$"):
            model_inputs(config)

    def test_zero_column_rank_deficient(self):
        with pytest.raises(DataError) as exc:
            RegressionData(design=[[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], response=[1.0, 2.0, 3.0])
        assert str(exc.value) == "design matrix is rank deficient: zero column present"

    def test_empty_file_is_schema_error(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError) as exc:
            load_csv(p, MM_COLUMNS)
        assert str(exc.value) == "required column '<header>' not found in header"

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("concentration,speed\n0.1,5\n")
        with pytest.raises(DataError) as exc:
            load_csv(p, MM_COLUMNS)
        assert str(exc.value) == "required column 'velocity' not found in header"

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("concentration,velocity\n0.1,5\n0.2,fast\n")
        with pytest.raises(DataError) as exc:
            load_csv(p, MM_COLUMNS)
        assert str(exc.value) == "non-numeric value 'fast' at data row 2, column 'velocity'"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN "])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        p = tmp_path / "f.csv"
        p.write_text(f"concentration,velocity\n0.1,5\n0.2,6\n0.3,{cell}\n")
        with pytest.raises(DataError) as exc:
            load_csv(p, MM_COLUMNS)
        assert str(exc.value) == (f"non-finite value {cell.strip()!r} at data row 3, "
                                  f"column 'velocity'")

    def test_nonpositive_concentration(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("concentration,velocity\n0.1,5\n0,6\n0.2,7\n")
        with pytest.raises(DataError) as exc:
            model_inputs({"model": "mm", "data": p})
        assert str(exc.value) == "concentration must be strictly positive; got 0.0 at data row 2"

    def test_logit_outcome_domain(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("y,x\n0,1\n2,1.5\n")
        with pytest.raises(DataError) as exc:
            model_inputs({"model": "logit", "data": p, "data.covariates": "x"})
        assert str(exc.value) == "outcome must be exactly 0 or 1; got 2.0 at data row 2"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv", MM_COLUMNS)

    def test_linear_intercept_prepended(self, tmp_path):
        p = tmp_path / "lin.csv"
        p.write_text("y,x\n1,2\n2,3\n3,5\n")
        _, data, _ = model_inputs({"model": "linear", "data": p, "data.covariates": "x"})
        assert data.k == 2
        assert np.all(data.design[:, 0] == 1.0)
        assert list(data.design[:, 1]) == [2.0, 3.0, 5.0]

    def test_columns_read_by_name_in_any_order(self, tmp_path):
        p = tmp_path / "cols.csv"
        p.write_text("a,b,c\n1,2,3\n4,5,6\n")
        columns = load_csv(p, ["c", "a"])
        assert list(columns) == ["c", "a"]
        assert list(columns["c"]) == [3.0, 6.0] and list(columns["a"]) == [1.0, 4.0]

    def test_utf8_byte_order_mark_is_not_part_of_the_first_column_name(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfx,y\n1,2\n3,4\n")
        columns = load_csv(p, ["x", "y"])
        assert list(columns["x"]) == [1.0, 3.0] and list(columns["y"]) == [2.0, 4.0]


class TestRoundTrip:
    def test_write_then_load_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        conc = np.abs(rng.standard_normal(9)) + 1e-3
        vel = rng.standard_normal(9) * 100
        p = tmp_path / "rt.csv"
        write_csv_report(p, ["concentration", "velocity"],
                         [[float(c), float(v)] for c, v in zip(conc, vel)])
        back = load_csv(p, MM_COLUMNS)
        assert np.array_equal(back["concentration"], conc)
        assert np.array_equal(back["velocity"], vel)


class TestDeletionSet:
    """A deletion set is a sorted int row of distinct 0-based cases; the CLI
    makes one from the 1-based cases of `deletion.indices`."""

    @staticmethod
    def row(cases, n):
        return _deletion({"deletion.indices": tuple(cases)}, n)

    def test_dedup_and_sort(self):
        d = self.row([4, 2, 4], 5)
        assert d.dtype.kind == "i"
        assert d.tolist() == [1, 3]
        assert d.size == 2

    def test_empty_allowed(self):
        d = self.row([], 4)
        assert d.tolist() == []
        assert d.size == 0

    def test_out_of_range(self):
        with pytest.raises(DataError, match=r"^deletion.indices: case 12 is outside 1..11$"):
            self.row([12], 11)
        with pytest.raises(DataError, match=r"^deletion.indices: case 0 is outside 1..11$"):
            self.row([0], 11)

    def test_full_deletion_allowed(self):
        d = self.row(range(1, 5), 4)
        assert d.size == 4

    @given(st.lists(st.integers(min_value=1, max_value=10), max_size=20), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_order_insensitive(self, items, pyrandom):
        shuffled = list(items)
        pyrandom.shuffle(shuffled)
        assert np.array_equal(self.row(items, 10), self.row(shuffled, 10))


class TestDataInvariants:
    def test_regression_immutable(self, derived_linear):
        with pytest.raises(ValueError):
            derived_linear.design[0, 0] = 9.0

    def test_regression_needs_matching_lengths(self):
        with pytest.raises(DataError):
            RegressionData(design=np.ones((3, 1)), response=[1.0, 2.0])

    def test_mm_positive_concentration(self):
        with pytest.raises(DataError, match=r"^concentration must be strictly positive; "
                                            r"got -0\.2 at data row 2$"):
            MMData(concentration=[0.1, -0.2, 0.3], velocity=[1.0, 2.0, 3.0])


class TestMomentVerdict:
    def test_tags(self):
        assert MomentVerdict.finite().is_finite
        assert MomentVerdict.infinite("x").tag is VerdictTag.INFINITE
        assert MomentVerdict.boundary("leverage").tag is VerdictTag.BOUNDARY

    def test_boundary_needs_detail(self):
        with pytest.raises(ValueError):
            MomentVerdict.boundary("")


class TestMomentIndexReport:
    def test_r_star_is_min(self):
        rep = MomentIndexReport.of(np.array([[3]]), np.array([4.0]), np.array([3.0]),
                                   np.array([10.0 / 7.0]))
        assert rep.r_star.tolist() == [10.0 / 7.0] and rep.binding.tolist() == ["residual"]
        assert rep.count == 1

    def test_positive_entries_required(self):
        with pytest.raises(ValueError):
            MomentIndexReport(np.array([[3]]), r_a=np.array([0.0]), r_b=np.array([1.0]),
                              r_c=np.array([1.0]), binding=np.array(["leverage"], dtype=object))

    def test_tie_rule_is_the_first_minimal_cutoff(self):
        # Every pattern of three cut-offs over three levels, equal ones and
        # infinity included, against the scalar rule: the first minimal one
        # in the order leverage, sample-size, residual binds.
        names = ("leverage", "sample-size", "residual")
        cuts = list(product((1.5, 2.0, math.inf), repeat=3))
        rep = MomentIndexReport.of(np.zeros((len(cuts), 1), dtype=int), *np.array(cuts).T)
        assert rep.binding.tolist() == [names[c.index(min(c))] for c in cuts]
        assert rep.r_star.tolist() == [min(c) for c in cuts]
