"""Closed-form kernels vs truncated combs and measured similarities."""

import csv

import numpy as np
import pytest
from hypothesis import example, given, strategies

from reference import sinc_comb
from residuehd.kernels import (
    analytic_kernel,
    empirical_kernel,
    product_kernel,
    write_curve_csv,
)
from residuehd.phasor import sample_base
from residuehd.residue import ResidueSystem, make_residue_system

# odd and even moduli, so both closed-form branches are drawn
moduli = strategies.integers(2, 64)


class TestAnalyticKernel:
    def test_reference_values(self):
        assert analytic_kernel(5, 0.0) == 1.0
        assert analytic_kernel(5, 1.0) == 0.0
        assert abs(analytic_kernel(5, 2.5) - 0.2) < 1e-12

    def test_even_branch_value(self):
        # cross-checked against the truncated comb, the independent oracle
        comb = sinc_comb(6, 1.5, 10_000)
        assert abs(analytic_kernel(6, 1.5) - (-1 / 6)) < 1e-12
        assert abs(analytic_kernel(6, 1.5) - comb) < 1e-4

    def test_integer_offsets_exact(self):
        for m in (2, 3, 5, 6, 10):
            for dx in range(-2 * m, 2 * m + 1):
                expected = 1.0 if dx % m == 0 else 0.0
                assert analytic_kernel(m, float(dx)) == expected

    @given(m=moduli, dx=strategies.floats(-50.0, 50.0))
    @example(m=5, dx=np.linspace(-4, 4, 81))
    @example(m=6, dx=np.linspace(-4, 4, 81))
    def test_periodicity(self, m, dx):
        assert np.allclose(analytic_kernel(m, dx), analytic_kernel(m, dx + m), atol=1e-12)

    @given(m=moduli, dx=strategies.floats(-50.0, 50.0))
    @example(m=5, dx=np.linspace(0, 7, 71))
    @example(m=6, dx=np.linspace(0, 7, 71))
    def test_even_symmetry(self, m, dx):
        assert np.allclose(analytic_kernel(m, dx), analytic_kernel(m, -dx), atol=1e-12)

    @given(m=moduli, dx=strategies.floats(-6.0, 6.0))
    @example(m=5, dx=np.arange(-6.0, 6.0, 0.13))
    @example(m=6, dx=np.arange(-6.0, 6.0, 0.13))
    def test_both_parity_branches_match_comb(self, m, dx):
        comb = sinc_comb(m, dx, 10_000)
        assert np.max(np.abs(analytic_kernel(m, dx) - comb)) < 1e-3

    def test_large_m_approaches_sinc(self):
        grid = np.arange(-4.0, 4.0, 0.17)
        vals = analytic_kernel(10_000, grid)
        assert np.max(np.abs(vals - np.sinc(grid))) < 1e-3

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            analytic_kernel(1, 0.3)


class TestSincComb:
    def test_center_term(self):
        assert abs(sinc_comb(5, 5.0, 3) - 1.0) < 1e-12

    def test_quarter_period_value(self):
        assert abs(sinc_comb(5, 2.5, 10_000) - 0.2) < 1e-3

    def test_truncation_error_decays(self):
        target = analytic_kernel(5, 1.7)
        errors = [abs(sinc_comb(5, 1.7, n) - target) for n in (10, 100, 1000, 10_000)]
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))

    def test_n_terms_validation(self):
        with pytest.raises(ValueError):
            sinc_comb(5, 0.3, 0)


class TestEmpiricalKernel:
    def test_zero_offset_is_one(self):
        sys = ResidueSystem([sample_base(5, 2000, seed=0)])
        assert empirical_kernel(sys, [0.0])[0] == 1.0

    def test_matches_analytic_modulus5(self):
        # the kernel of one base is that of its one-base system
        sys = ResidueSystem([sample_base(5, 20_000, seed=1)])
        grid = np.arange(-5.0, 5.0, 0.25)
        emp = empirical_kernel(sys, grid)
        assert np.max(np.abs(emp - analytic_kernel(5, grid))) <= 0.05
        assert np.array_equal(product_kernel(sys.moduli, grid), analytic_kernel(5, grid))

    def test_system_kernel_is_product(self):
        sys = make_residue_system([3, 5], 20_000, seed=2)
        grid = np.arange(-4.0, 4.0, 0.5)
        emp = empirical_kernel(sys, grid)
        assert np.max(np.abs(emp - product_kernel([3, 5], grid))) <= 0.05


class TestProductKernel:
    def test_common_period(self):
        assert product_kernel([3, 5], 15.0) == 1.0

    def test_vanishes_at_partial_multiple(self):
        assert product_kernel([3, 5], 3.0) == 0.0

    def test_unity_only_at_multiples_of_M(self):
        for dx in range(1, 15):
            assert product_kernel([3, 5], float(dx)) == 0.0


class TestCurveEmitter:
    def test_csv_format(self, tmp_path):
        sys = ResidueSystem([sample_base(5, 2000, seed=3)])
        grid = np.arange(-1.0, 1.01, 0.5)
        emp, ana = empirical_kernel(sys, grid), product_kernel(sys.moduli, grid)
        path = tmp_path / "curve.csv"
        worst = write_curve_csv(path, grid, emp, ana)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == ["dx", "empirical", "analytic", "abs_error"]
            data = list(reader)
        assert len(data) == len(grid)
        for dx, e, a, row in zip(grid, emp, ana, data):
            assert [float(v) for v in row] == [dx, e, a, abs(e - a)]
            assert "," not in row[1]  # locale-independent decimal point
        assert worst == max(float(row[3]) for row in data)

    def test_abs_error_column(self, tmp_path):
        path = tmp_path / "curve.csv"
        worst = write_curve_csv(path, [0, 1], [1.0, 0.25], [1.0, 0.5])
        assert path.read_text().splitlines()[1:] == ["0.0,1.0,1.0,0.0", "1.0,0.25,0.5,0.25"]
        assert worst == 0.25

    @pytest.mark.parametrize("dx, empirical, analytic", [
        pytest.param([0.0, 1.0], [1.0, 0.5], [1.0], id="short-analytic"),
        pytest.param([0.0, 1.0], [1.0], [1.0, 0.5], id="short-empirical"),
        pytest.param([0.0], [1.0, 0.5], [1.0, 0.5], id="short-dx"),
        pytest.param([[0.0, 1.0]], [[1.0, 0.5]], [[1.0, 0.5]], id="not-1d"),
    ])
    def test_malformed_columns_rejected(self, tmp_path, dx, empirical, analytic):
        # zip would cut the file short at the shortest column
        path = tmp_path / "curve.csv"
        with pytest.raises(ValueError, match="one length"):
            write_curve_csv(path, dx, empirical, analytic)
        assert not path.exists()
