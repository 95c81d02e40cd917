"""Closed-form kernels vs truncated combs and measured similarities."""

import csv

import numpy as np
import pytest
from hypothesis import example, given, strategies

from residuehd.kernels import (
    analytic_kernel,
    empirical_kernel,
    kernel_curve,
    product_kernel,
    sinc_comb,
    write_curve_csv,
)
from residuehd.phasor import sample_base
from residuehd.residue import make_residue_system

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
        base = sample_base(5, 2000, seed=0)
        assert empirical_kernel(base, [0.0])[0] == 1.0

    def test_matches_analytic_modulus5(self):
        base = sample_base(5, 20_000, seed=1)
        grid = np.arange(-5.0, 5.0, 0.25)
        emp = empirical_kernel(base, grid)
        assert np.max(np.abs(emp - analytic_kernel(5, grid))) <= 0.05

    def test_system_kernel_is_product(self):
        sys = make_residue_system([3, 5], 20_000, seed=2)
        grid = np.arange(-4.0, 4.0, 0.5)
        emp = empirical_kernel(sys, grid)
        assert np.max(np.abs(emp - product_kernel([3, 5], grid))) <= 0.05

    def test_rejects_unknown_encoder(self):
        with pytest.raises(TypeError):
            empirical_kernel(object(), [0.0])


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
        base = sample_base(5, 2000, seed=3)
        rows = kernel_curve(base, np.arange(-1.0, 1.01, 0.5))
        path = tmp_path / "curve.csv"
        write_curve_csv(path, rows)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == ["dx", "empirical", "analytic", "abs_error"]
            data = list(reader)
        assert len(data) == len(rows)
        for (dx, emp, ana, err), row in zip(rows, data):
            assert float(row[0]) == dx
            assert float(row[3]) == err
            assert "," not in row[1]  # locale-independent decimal point

    def test_abs_error_column(self):
        base = sample_base(5, 2000, seed=4)
        rows = kernel_curve(base, [0.0, 0.5])
        for dx, emp, ana, err in rows:
            assert err == abs(emp - ana)
