"""Thermometer, float, and scatter encoders against their closed forms."""

import numpy as np
import pytest

from residuehd.baselines import (
    cosine,
    fit_kernel_shapes,
    float_encode,
    float_kernel,
    scatter_encode,
    scatter_expected_similarity,
    scatter_similarity_curve,
    thermometer_encode,
    thermometer_kernel,
)


class TestThermometer:
    def test_extremes(self):
        assert np.all(thermometer_encode(0, 4) == -1)
        assert np.all(thermometer_encode(4, 4) == 1)

    def test_structure(self):
        assert thermometer_encode(2, 4).tolist() == [1, 1, -1, -1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            thermometer_encode(5, 4)
        with pytest.raises(ValueError):
            thermometer_encode(-1, 4)

    def test_triangular_kernel_exact(self):
        D = 50
        for s in (0, 10, 25):
            for delta in range(0, D - s + 1):
                got = cosine(thermometer_encode(s, D), thermometer_encode(s + delta, D))
                assert abs(got - thermometer_kernel(D, delta)) < 1e-12


class TestFloat:
    def test_structure(self):
        assert float_encode(0, 6, 3).tolist() == [1, 1, 1, 0, 0, 0]

    def test_bounds(self):
        with pytest.raises(ValueError):
            float_encode(4, 6, 3)

    def test_triangular_kernel_exact(self):
        D, w = 60, 10
        for s in (0, 20):
            for delta in range(0, 30):
                if s + delta > D - w:
                    break
                got = np.dot(float_encode(s, D, w), float_encode(s + delta, D, w)) / w
                assert abs(got - float_kernel(w, delta)) < 1e-12

    def test_zero_beyond_width(self):
        assert float_kernel(10, 10) == 0.0
        assert float_kernel(10, 25) == 0.0


class TestScatter:
    def test_p_zero_constant(self):
        codes = scatter_encode(5, 100, 0.0, seed=0)
        assert np.all(codes == codes[0])

    def test_p_one_alternates(self):
        codes = scatter_encode(4, 100, 1.0, seed=1)
        assert np.all(codes[1] == -codes[0])
        assert np.all(codes[2] == codes[0])

    def test_deterministic(self):
        a = scatter_encode(8, 64, 0.3, seed=7)
        b = scatter_encode(8, 64, 0.3, seed=7)
        assert np.array_equal(a, b)

    def test_expected_decay_within_3se(self):
        # E[sim at step d] = (1-2p)^d; SE estimated across the 50 seeds
        D, p, levels, n_seeds = 1000, 0.05, 31, 50
        curves = np.stack(
            [scatter_encode(levels, D, p, seed).astype(float) @ scatter_encode(levels, D, p, seed)[0].astype(float) / D
             for seed in range(n_seeds)]
        )
        mean = curves.mean(axis=0)
        se = curves.std(axis=0, ddof=1) / np.sqrt(n_seeds)
        expected = scatter_expected_similarity(p, np.arange(levels))
        for d in range(1, 31):
            assert abs(mean[d] - expected[d]) <= 3 * max(se[d], 1e-9)

    def test_mean_curve_monotone_nonincreasing(self):
        curve = scatter_similarity_curve(31, 1000, 0.05, seeds=range(50))
        assert np.all(np.diff(curve) <= 1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            scatter_encode(4, 16, 1.5, seed=0)
        with pytest.raises(ValueError):
            scatter_encode(0, 16, 0.5, seed=0)


class TestKernelFits:
    def test_recovers_squared_exponential(self):
        deltas = np.arange(0, 31)
        sims = np.exp(-(deltas**2) / (2 * 5.0**2))
        fits = fit_kernel_shapes(deltas, sims)
        assert fits["best"] == "squared_exponential"
        assert fits["squared_exponential"]["mse"] < 1e-10
        assert abs(fits["squared_exponential"]["params"][0] - 5.0) < 1e-6

    def test_fits_scatter_curve(self):
        curve = scatter_similarity_curve(31, 1000, 0.05, seeds=range(20))
        fits = fit_kernel_shapes(np.arange(31), curve)
        best = fits[fits["best"]]
        assert best["mse"] < 0.01
