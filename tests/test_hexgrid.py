"""Cartesian products, the hexagonal frame, and state counting."""

import csv
import math

import numpy as np
import pytest

from residuehd.hexgrid import (
    PSI,
    HexSystem,
    code_entropy,
    encode_cartesian,
    hex_project,
    hex_state_count,
    hex_state_count_enumerated,
    round_to_hex_coord,
    sample_hex_base,
    square_state_count,
    write_hex_heatmap_csv,
)
from residuehd.phasor import hadamard, similarity
from residuehd.residue import make_residue_system, multiply, system_to_dict


class TestProjectionFrame:
    def test_rows_are_unit(self):
        assert np.allclose(np.linalg.norm(PSI, axis=1), 1.0, atol=1e-12)

    def test_rows_sum_to_zero(self):
        assert np.allclose(PSI.sum(axis=0), 0.0, atol=1e-12)

    def test_gram_is_three_halves_identity(self):
        assert np.allclose(PSI.T @ PSI, 1.5 * np.eye(2), atol=1e-12)

    def test_origin(self):
        assert np.allclose(hex_project((0.0, 0.0)), 0.0)

    def test_unit_y(self):
        assert np.allclose(hex_project((0.0, 1.0)), [-0.5, -0.5, 1.0], atol=1e-12)

    def test_norm_scaling(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=2)
            y = hex_project(x)
            assert abs(np.dot(y, y) - 1.5 * np.dot(x, x)) < 1e-10


class TestRounding:
    def test_plain_rounding(self):
        assert round_to_hex_coord([0.4, 0.6, -0.4]).tolist() == [0, 1, 0]

    def test_tie_takes_lower(self):
        assert round_to_hex_coord([0.5, -0.5, 1.5]).tolist() == [0, -1, 1]


class TestCartesianEncoding:
    def test_zero_vector_identity(self):
        systems = [make_residue_system([3, 5], 64, seed=k) for k in range(2)]
        v = encode_cartesian(systems, [0, 0])
        assert np.all(v.indices == 0)

    def test_vector_addition(self):
        systems = [make_residue_system([3, 5], 64, seed=10 + k) for k in range(2)]
        rng = np.random.default_rng(1)
        for _ in range(40):
            a = [int(rng.integers(15)), int(rng.integers(15))]
            b = [int(rng.integers(15)), int(rng.integers(15))]
            left = hadamard(encode_cartesian(systems, a), encode_cartesian(systems, b))
            right = encode_cartesian(systems, [(a[0] + b[0]) % 15, (a[1] + b[1]) % 15])
            assert left == right

    def test_componentwise_multiplication(self):
        # per-axis multiplicative binding gives the encoding of the
        # componentwise product; exhaustive per axis for moduli {3, 5}
        systems = [
            make_residue_system([3, 5], 64, seed=20 + k, nonzero_only=True) for k in range(2)
        ]
        for axis in range(2):
            sys_a = systems[axis]
            for x1 in range(15):
                for x2 in range(15):
                    prod = multiply(sys_a, sys_a.encode_factors(x1), sys_a.encode_factors(x2))
                    assert prod == sys_a.encode((x1 * x2) % 15)
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = [int(rng.integers(15)), int(rng.integers(15))]
            b = [int(rng.integers(15)), int(rng.integers(15))]
            per_axis = [
                multiply(systems[i], systems[i].encode_factors(a[i]), systems[i].encode_factors(b[i]))
                for i in range(2)
            ]
            left = hadamard(per_axis[0], per_axis[1])
            right = encode_cartesian(systems, [(a[0] * b[0]) % 15, (a[1] * b[1]) % 15])
            assert left == right


class TestHexBase:
    def test_constraint_holds_everywhere(self):
        b1, b2, b3 = sample_hex_base(5, 4096, seed=3)
        total = (b1.phase_indices + b2.phase_indices + b3.phase_indices) % 5
        assert np.all(total == 0)

    def test_marginals_uniform(self):
        b1, b2, b3 = sample_hex_base(7, 100_000, seed=4)
        for base in (b1, b3):
            freqs = np.bincount(base.phase_indices, minlength=7) / base.dim
            assert np.all(np.abs(freqs - 1 / 7) <= 0.01)


class TestHexEncoding:
    def test_diagonal_shift_invariance_bit_exact(self):
        hs = HexSystem(5, 512, seed=5)
        assert hs.encode((1, 1, 1)) == hs.encode((0, 0, 0))
        rng = np.random.default_rng(6)
        for _ in range(30):
            y = [int(v) for v in rng.integers(-10, 10, size=3)]
            shifted = [c + 1 for c in y]
            assert hs.encode(y) == hs.encode(shifted)

    def test_non_integer_coordinate_raises(self):
        # encode_cartesian once truncated 1.7 to 1
        hs = HexSystem(5, 64, seed=5)
        with pytest.raises(TypeError):
            hs.encode((1.7, 0, 0))
        assert hs.encode(np.array([1, 0, 0])) == hs.encode((1, 0, 0))

    def test_path_independence(self):
        hs = HexSystem(7, 256, seed=7)
        # the same multiset of unit steps in any order, with a full
        # (1,1,1) loop inserted, lands on a bit-identical encoding
        steps_a = [(1, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)]
        steps_b = [(0, 0, 1), (1, 0, 0), (1, 1, 1), (0, 1, 0), (1, 0, 0)]

        def walk(steps):
            v = hs.encode((0, 0, 0))
            pos = np.zeros(3, dtype=int)
            for s in steps:
                pos += s
                v = hadamard(v, hs.encode(s))
            return v, pos

        va, pa = walk(steps_a)
        vb, pb = walk(steps_b)
        assert np.array_equal(pa, pb)
        assert va == vb
        assert va == hs.encode(tuple(pa))

    def test_sixfold_symmetry(self):
        hs = HexSystem(5, 20_000, seed=8)
        origin = hs.encode_continuous((0.0, 0.0))
        theta = math.pi / 3
        R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        pinv = (2.0 / 3.0) * PSI.T
        rng = np.random.default_rng(9)
        tol = 5 / math.sqrt(hs.dim)
        for _ in range(12):
            y = rng.integers(-3, 4, size=3)
            y = y - y.sum()  # lattice-compatible: coordinates sum to zero
            x = pinv @ y
            s1 = similarity(origin, hs.encode_continuous(x))
            s2 = similarity(origin, hs.encode_continuous(R @ x))
            assert abs(s1 - s2) <= tol

    def test_multi_modulus_kernel_is_product(self):
        D = 20_000
        hs3 = HexSystem(3, D, seed=10)
        hs5 = HexSystem(5, D, seed=11)
        hs35 = HexSystem((3, 5), D, seed=12)
        rng = np.random.default_rng(13)
        tol = 6 / math.sqrt(D)
        for _ in range(10):
            x = rng.uniform(-3, 3, size=2)
            k3 = similarity(hs3.encode_continuous((0, 0)), hs3.encode_continuous(x))
            k5 = similarity(hs5.encode_continuous((0, 0)), hs5.encode_continuous(x))
            k35 = similarity(hs35.encode_continuous((0, 0)), hs35.encode_continuous(x))
            assert abs(k35 - k3 * k5) <= tol

    def test_point_encoding_uses_nearest_cell(self):
        hs = HexSystem(5, 256, seed=14)
        x = np.array([0.9, 0.2])
        y = round_to_hex_coord(hex_project(x))
        assert hs.encode_point(x) == hs.encode(tuple(y))

    def test_non_coprime_moduli_rejected(self):
        with pytest.raises(ValueError):
            HexSystem((3, 6), 64, seed=15)

    def test_no_moduli_rejected(self):
        # once built with no directions, and range_M raised IndexError
        with pytest.raises(ValueError):
            HexSystem((), 64, seed=15)

    def test_numpy_single_modulus(self):
        # once a TypeError: only a Python int was taken as one modulus
        hs, want = HexSystem(np.int64(5), 8, 0), HexSystem(5, 8, 0)
        assert hs.moduli == (5,) and type(hs.moduli[0]) is int
        for a, b in zip(hs.directions, want.directions):
            assert system_to_dict(a) == system_to_dict(b)

    def test_moduli_and_dim_read_from_directions(self):
        hs = HexSystem((np.int64(3), 5), 64, seed=15)
        assert (hs.moduli, hs.dim) == ((3, 5), 64) and type(hs.moduli[0]) is int

    def test_encoding_near_exact_limit_bit_exact(self):
        # u1 (m-1) + u2 (m-2) + u3 (m-3) would wrap int64 summed in one step
        m = 2147483659
        y = (m - 1, m - 2, m - 3)
        for seed in range(5):
            hs = HexSystem((m,), 16, seed)
            # with one modulus, encoding a unit step yields that direction's base
            u = [hs.encode(e).indices.tolist() for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
            expected = [sum(u[d][j] * y[d] for d in range(3)) % m for j in range(16)]
            assert hs.encode(y).indices.tolist() == expected

    def test_range_beyond_exact_limit_rejected(self):
        hs = HexSystem((2, 1518500251), 8, seed=16)
        with pytest.raises(ValueError, match="exact period limit"):
            hs.encode((1, 2, 3))

    def test_decode_recovers_canonical_class(self):
        from residuehd.resonator import ResonatorConfig

        hs = HexSystem((3, 5), 1024, seed=17)
        M = hs.range_M

        def canonical(y):
            best = None
            for t in range(M):
                cand = tuple((c + t) % M for c in y)
                key = (max(cand), cand)
                if best is None or key < best[0]:
                    best = (key, cand)
            return best[1]

        rng = np.random.default_rng(18)
        ys = [tuple(int(v) for v in rng.integers(0, M, size=3)) for _ in range(10)]
        # ties in the maximum, and classes whose shifts wrap around M
        ys += [(0, 0, 0), (2, 2, 0), (0, 3, 3), (M - 1, M - 1, M - 1), (M - 1, 0, 1)]
        for trial, y in enumerate(ys):
            cfg = ResonatorConfig(max_iters=30, max_restarts=5, seed=trial)
            decoded = hs.decode(hs.encode(y), cfg)
            assert decoded == canonical(y)

    def test_codebooks_built_once(self, monkeypatch):
        from residuehd import hexgrid
        from residuehd.resonator import ResonatorConfig

        factorize, passed = hexgrid.resonator_factorize, []

        def recording_factorize(v, books, cfg):
            passed.append(books)
            return factorize(v, books, cfg)

        monkeypatch.setattr(hexgrid, "resonator_factorize", recording_factorize)
        hs = HexSystem((3, 5), 1024, seed=17)
        for t, y in enumerate([(1, 2, 0), (4, 0, 3)]):
            hs.decode(hs.encode(y), ResonatorConfig(max_iters=30, max_restarts=5, seed=t))
        # the books are the directions' own bases, modulus-major
        own = [d.bases[k] for k in range(len(hs.moduli)) for d in hs.directions]
        assert len(passed) == 2
        for books in passed:
            assert len(books) == len(own) and all(b is o for b, o in zip(books, own))

    def test_decode_failure_raises(self):
        from residuehd.resonator import ResonatorConfig

        hs = HexSystem((3, 5), 256, seed=0)
        v = np.exp(1j * np.random.default_rng(19).uniform(0, 2 * np.pi, hs.dim))
        with pytest.raises(RuntimeError):
            hs.decode(v, ResonatorConfig(max_iters=3, seed=0))

    def test_decode_verifies_without_verify_flag(self):
        from residuehd.resonator import ResonatorConfig

        # random phases reach the convergence threshold within three sweeps
        hs = HexSystem((3, 5), 256, seed=0)
        rng = np.random.default_rng(21)
        for t in range(5):
            v = np.exp(1j * rng.uniform(0, 2 * np.pi, hs.dim))
            with pytest.raises(RuntimeError):
                hs.decode(v, ResonatorConfig(max_iters=3, seed=t))


class TestStateCounting:
    def test_minimal(self):
        assert hex_state_count(1) == 1
        assert square_state_count(1) == 1

    def test_modulus_five(self):
        assert hex_state_count(5) == 61
        assert square_state_count(5) == 25

    def test_codebook_budgets(self):
        m = 5
        assert 3 * m == 15
        assert 2 * m == 10

    def test_enumeration_matches_closed_form(self):
        for m in range(1, 13):
            assert hex_state_count_enumerated(m) == hex_state_count(m)

    def test_entropy_dominance(self):
        for m in range(2, 13):
            assert code_entropy(hex_state_count(m)) > code_entropy(square_state_count(m))

    def test_entropy_value(self):
        assert code_entropy(8) == 3.0


class TestHeatmapEmitter:
    def test_csv_grid(self, tmp_path):
        hs = HexSystem(3, 512, seed=16)
        path = tmp_path / "hex.csv"
        write_hex_heatmap_csv(path, hs, xs=[-1.0, 0.0, 1.0], ys=[0.0, 1.0])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "similarity"]
        assert len(rows) == 1 + 6
        origin_row = [r for r in rows[1:] if float(r[0]) == 0.0 and float(r[1]) == 0.0]
        assert abs(float(origin_row[0][2]) - 1.0) < 1e-9
