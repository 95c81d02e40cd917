"""Base sampling, integer/rational encoding, similarity, binding, noise."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies
from hypothesis.extra.numpy import arrays
from scipy import special

from residuehd.phasor import (
    _MAX_PERIOD,
    _unit_into,
    ModulusBase,
    NoiseModel,
    PhasorVector,
    add_phase_noise,
    base_from_dict,
    base_to_dict,
    conjugate,
    encode_integer,
    encode_rational,
    hadamard,
    identity_vector,
    load_base,
    phase_normalize,
    sample_base,
    save_base,
    similarity,
)


def version_1_record(base):
    """The record of `base` as the version-1 writer made it, with dim, seed and nonzero_only."""
    return {"format": "residuehd/modulus-base", "version": 1, "modulus": base.modulus, "dim": base.dim,
            "seed": 9, "nonzero_only": False, "phase_indices": base.phase_indices.tolist()}


class TestSampleBase:
    def test_range_and_determinism(self):
        a = sample_base(5, 4, seed=123)
        b = sample_base(5, 4, seed=123)
        assert a.modulus == 5 and a.dim == 4
        assert np.all((0 <= a.phase_indices) & (a.phase_indices < 5))
        assert np.array_equal(a.phase_indices, b.phase_indices)
        c = sample_base(5, 4, seed=124)
        assert not np.array_equal(a.phase_indices, c.phase_indices)

    def test_nonzero_only_mod2_all_ones(self):
        base = sample_base(2, 1000, seed=0, nonzero_only=True)
        assert np.all(base.phase_indices == 1)

    def test_uniform_histogram_mod7(self):
        base = sample_base(7, 100_000, seed=7)
        counts = np.bincount(base.phase_indices, minlength=7)
        freqs = counts / base.dim
        assert np.all(np.abs(freqs - 1 / 7) <= 0.01)
        # chi-square against uniform: comfortably below the 0.999 quantile of chi2(6)
        chi2 = float(((counts - base.dim / 7) ** 2 / (base.dim / 7)).sum())
        assert chi2 < 22.46

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            sample_base(1, 10, seed=0)
        with pytest.raises(ValueError):
            sample_base(5, 0, seed=0)

    @pytest.mark.parametrize("m, D", [("5", 8), (5, 8.0), (True, 8), (5, True)],
                             ids=["str-modulus", "float-D", "bool-modulus", "bool-D"])
    def test_non_integer_parameters_raise_value_error(self, m, D):
        # a string modulus once reached `m < 2`, and a float D numpy, both as TypeError
        with pytest.raises(ValueError, match="must be integers"):
            sample_base(m, D, seed=0)

    def test_base_invariants(self):
        with pytest.raises(ValueError):
            ModulusBase(modulus=5, phase_indices=np.array([0, 2, 5]))
        with pytest.raises(ValueError):
            ModulusBase(modulus=5, phase_indices=np.array([-1, 2, 3]))

    @pytest.mark.parametrize("modulus, indices", [
        (5, np.array([1.7, 2.2, 4.9])),  # once truncated to [1 2 4]
        (5, [1, 2, 2**70]),  # an object array
        (5, [True, False]),
        (5.0, [1, 2]),
        ("5", [1, 2]),
        (None, [1, 2]),
        (True, [0]),  # once read as modulus 1
    ])
    def test_base_rejects_non_integers(self, modulus, indices):
        with pytest.raises(ValueError):
            ModulusBase(modulus, indices)

    def test_numpy_modulus_becomes_int(self, tmp_path):
        # a numpy modulus once reached json.dump, which left a truncated file
        base = sample_base(np.int64(5), 8, seed=0)
        assert type(base.modulus) is int
        save_base(base, tmp_path / "base.json")
        assert load_base(tmp_path / "base.json").modulus == 5

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_base_keeps_a_read_only_copy(self, dtype):
        caller = np.array([1, 2, 4], dtype=dtype)
        base = ModulusBase(5, caller)
        assert base.phase_indices.dtype == np.int64 and not base.phase_indices.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            base.phase_indices[0] = 3
        caller[0] = 3  # the caller's array is neither frozen nor shared
        assert base.phase_indices.tolist() == [1, 2, 4]

    @pytest.mark.parametrize("indices", [np.array([[1, 2], [3, 4]]), np.array([], dtype=np.int64)])
    def test_base_rejects_non_1d_or_empty_indices(self, indices):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            ModulusBase(modulus=5, phase_indices=indices)

    def test_modulus_beyond_exact_limit_rejected(self):
        # u * x would wrap int64 in encode_integer at this modulus
        m = 2**40 + 15
        with pytest.raises(ValueError, match="exact period limit"):
            sample_base(m, 4, seed=0)
        with pytest.raises(ValueError, match="exact period limit"):
            ModulusBase(modulus=m, phase_indices=np.array([m - 2]))


class TestEncodeInteger:
    def test_zero_is_identity(self):
        base = sample_base(5, 32, seed=1)
        v = encode_integer(base, 0)
        assert np.all(v.indices == 0)
        assert v.period == 5
        assert np.allclose(v.values, 1.0)
        assert np.array_equal(v.values, identity_vector(32).values)

    def test_congruence_bit_exact(self):
        base = sample_base(7, 64, seed=2)
        for x in (-13, 0, 3, 6, 29, 700001):
            assert encode_integer(base, x) == encode_integer(base, x + 7)
            assert encode_integer(base, x) == encode_integer(base, x % 7)

    def test_negative_is_conjugate(self):
        base = sample_base(11, 64, seed=3)
        assert encode_integer(base, -1) == conjugate(encode_integer(base, 1))

    def test_group_structure_bit_exact(self):
        base = sample_base(9, 64, seed=4)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x1, x2 = int(rng.integers(-50, 50)), int(rng.integers(-50, 50))
            assert hadamard(encode_integer(base, x1), encode_integer(base, x2)) == encode_integer(base, x1 + x2)


class TestEncodeRational:
    def test_matches_integer_encoding(self):
        base = sample_base(5, 128, seed=5)
        dense = encode_rational(base, 3.0)
        exact = encode_integer(base, 3)
        assert np.allclose(dense.values, exact.values, atol=1e-12)

    def test_half_step_mod2(self):
        base = ModulusBase(modulus=2, phase_indices=np.ones(4, dtype=np.int64))
        v = encode_rational(base, 0.5)
        assert np.allclose(v.values, 1j, atol=1e-12)

    def test_fractional_similarity_matches_kernel(self):
        from residuehd.kernels import analytic_kernel

        base = sample_base(5, 40_000, seed=6)
        sim = similarity(encode_rational(base, 40.4), encode_integer(base, 40))
        assert abs(sim - analytic_kernel(5, 0.4)) <= 3 / math.sqrt(base.dim)


class TestSimilarity:
    def test_self_similarity_exact(self):
        base = sample_base(6, 256, seed=7)
        v = encode_integer(base, 4)
        assert similarity(v, v) == 1.0

    def test_congruent_similarity_exact(self):
        base = sample_base(6, 256, seed=8)
        assert similarity(encode_integer(base, 2), encode_integer(base, 14)) == 1.0

    def test_distinct_residues_quasi_orthogonal(self):
        D = 10_000
        base = sample_base(7, D, seed=9)
        bound = 4 / math.sqrt(D)
        for a in range(7):
            for b in range(7):
                if a != b:
                    assert abs(similarity(encode_integer(base, a), encode_integer(base, b))) <= bound

    def test_translation_invariance_exact(self):
        base = sample_base(11, 128, seed=10)
        s1 = similarity(encode_integer(base, 3), encode_integer(base, 8))
        s2 = similarity(encode_integer(base, 54), encode_integer(base, 59))
        assert s1 == s2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            similarity(identity_vector(4), identity_vector(5))


class TestHadamard:
    def test_identity_and_inverse(self):
        base = sample_base(5, 64, seed=11)
        v = encode_integer(base, 3)
        assert hadamard(v, identity_vector(64)) == v
        inv = hadamard(v, conjugate(v))
        assert np.all(inv.indices == 0)

    def test_binding_period_is_lcm(self):
        a = PhasorVector.exact(np.array([1, 2]), 4)
        b = PhasorVector.exact(np.array([1, 5]), 6)
        assert hadamard(a, b).period == 12

    def test_period_beyond_int64_index_sum_rejected(self):
        # lcm is about 9.22e18: under 2^63, but the index sum would wrap
        p, q = 3037000493, 3037000453
        a = PhasorVector.exact(np.array([p - 1]), p)
        b = PhasorVector.exact(np.array([q - 1]), q)
        with pytest.raises(ValueError):
            hadamard(a, b)

    def test_addition_decodes(self):
        from residuehd.residue import make_residue_system
        from residuehd.resonator import Codebook, codebook_decode

        sys = make_residue_system([3, 5, 7], 256, seed=12)
        full = Codebook.from_vectors([sys.encode(x) for x in range(105)], )
        bound = hadamard(sys.encode(2), sys.encode(3))
        assert codebook_decode(bound, full) == 5


class TestPhaseNormalize:
    def test_unit_vector_unchanged(self):
        base = sample_base(9, 64, seed=13)
        v = encode_integer(base, 5).to_dense()
        assert np.allclose(phase_normalize(v).values, v.values, atol=1e-12)

    def test_three_four_five(self):
        out = phase_normalize(np.array([3 + 4j]))
        assert np.allclose(out.values, [0.6 + 0.8j], atol=1e-12)

    def test_zero_component_policy(self):
        out = phase_normalize(np.array([0j, 2j]))
        assert out.values[0] == 1.0 + 0.0j
        assert np.allclose(out.values[1], 1j)

    @given(data=strategies.data(), D=strategies.integers(0, 64))
    def test_bits_match_masked_formula(self, data, D):
        # the division patched only where a magnitude is zero gives the bits
        # of the formula that masks every component
        zero = strategies.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
        finite = strategies.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False)
        vals = data.draw(arrays(np.complex128, D, elements=strategies.one_of(zero, finite)))
        mags = np.abs(vals)
        want = np.where(mags > 0.0, vals / np.where(mags > 0.0, mags, 1.0), 1.0 + 0.0j)
        assert phase_normalize(vals).values.tobytes() == want.tobytes()


    @given(data=strategies.data(), D=strategies.integers(0, 64))
    def test_bits_equal_division_on_finite_inputs(self, data, D):
        finite = strategies.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300, allow_nan=False,
                                            allow_infinity=False)
        vals = data.draw(arrays(np.complex128, D, elements=finite))
        want = vals / np.abs(vals)
        assert phase_normalize(vals).values.tobytes() == want.tobytes()
        assert _unit_into(vals, vals) is vals and vals.tobytes() == want.tobytes()  # in place

    @given(data=strategies.data(), D=strategies.integers(1, 64))
    def test_zero_and_nan_patch(self, data, D):
        special = strategies.sampled_from([0j, complex(-0.0, -0.0), complex(math.nan, 1.0), complex(0.0, math.nan)])
        finite = strategies.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300, allow_nan=False,
                                            allow_infinity=False)
        vals = data.draw(arrays(np.complex128, D, elements=strategies.one_of(special, finite)))
        mags = np.abs(vals)
        unset = ~(mags > 0.0)
        want = np.where(unset, 1.0 + 0.0j, vals / np.where(unset, 1.0, mags))
        assert phase_normalize(vals).values.tobytes() == want.tobytes()
        assert _unit_into(vals, vals).tobytes() == want.tobytes()


class TestPhaseNoise:
    def test_infinite_kappa_is_identity(self):
        base = sample_base(5, 128, seed=14)
        v = encode_integer(base, 2)
        noisy = add_phase_noise(v, NoiseModel(kappa=math.inf, seed=0))
        assert np.array_equal(noisy.values, v.values)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(kappa=-0.5)

    def test_nan_kappa_rejected(self):
        # a NaN kappa once failed later, as an input with non-finite components
        with pytest.raises(ValueError, match="kappa must be >= 0"):
            NoiseModel(kappa=math.nan)

    def test_circular_variance_kappa16(self):
        # var = 1 - I1(k)/I0(k), estimated from the applied perturbations
        D = 100_000
        v = identity_vector(D)
        noisy = add_phase_noise(v, NoiseModel(kappa=16.0, seed=15))
        theta = np.angle(noisy.values)
        circ_var = 1.0 - float(np.abs(np.mean(np.exp(1j * theta))))
        expected = 1.0 - special.i1(16.0) / special.i0(16.0)
        assert abs(circ_var - expected) <= 0.005

    def test_mean_similarity_kappa1(self):
        D = 100_000
        base = sample_base(7, D, seed=16)
        v = encode_integer(base, 3)
        noisy = add_phase_noise(v, NoiseModel(kappa=1.0, seed=17))
        expected = special.i1(1.0) / special.i0(1.0)
        assert abs(similarity(noisy, v) - expected) <= 0.01

    def test_noise_determinism(self):
        base = sample_base(5, 64, seed=18)
        v = encode_integer(base, 1)
        n1 = add_phase_noise(v, NoiseModel(kappa=2.0, seed=99))
        n2 = add_phase_noise(v, NoiseModel(kappa=2.0, seed=99))
        assert np.array_equal(n1.values, n2.values)

    def test_output_unit_magnitude(self):
        base = sample_base(5, 256, seed=19)
        noisy = add_phase_noise(encode_integer(base, 4), NoiseModel(kappa=0.5, seed=1))
        assert np.allclose(np.abs(noisy.values), 1.0, atol=1e-9)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        base = sample_base(13, 512, seed=20, nonzero_only=True)
        path = tmp_path / "base.json"
        save_base(base, path)
        loaded = load_base(path)
        assert loaded.modulus == base.modulus
        assert loaded.dim == base.dim
        assert np.array_equal(loaded.phase_indices, base.phase_indices)

    @given(data=strategies.data(), m=strategies.integers(2, 10**6), D=strategies.integers(1, 64))
    def test_dict_round_trip(self, data, m, D):
        indices = data.draw(arrays(np.int64, D, elements=strategies.integers(0, m - 1)))
        base = ModulusBase(modulus=m, phase_indices=indices)
        loaded = base_from_dict(json.loads(json.dumps(base_to_dict(base))))
        assert (loaded.modulus, loaded.dim) == (m, D)
        assert np.array_equal(loaded.phase_indices, base.phase_indices)

    def test_format_checks(self):
        base = sample_base(5, 8, seed=21)
        d = base_to_dict(base)
        bad = dict(d, format="something-else")
        with pytest.raises(ValueError):
            base_from_dict(bad)
        bad = dict(d, version=99)
        with pytest.raises(ValueError):
            base_from_dict(bad)

    @pytest.mark.parametrize("key", ["modulus", "dim", "phase_indices"])
    def test_missing_key_rejected(self, key):
        d = version_1_record(sample_base(5, 4, seed=21))
        del d[key]
        with pytest.raises(ValueError, match=key):
            base_from_dict(d)

    # explicit ids keep each case's name from when the list also held seed and nonzero_only cases
    @pytest.mark.parametrize("change, match", [
        pytest.param({"modulus": 5.9}, "integers", id="change0-integers"),
        pytest.param({"dim": 4.0}, "integers", id="change2-integers"),
        pytest.param({"phase_indices": [1.7, 2.2, 3.9, 0.5]}, "integers", id="change3-integers"),
        pytest.param({"phase_indices": ["1", "2", "3", "0"]}, "integers", id="change4-integers"),
        pytest.param({"dim": 100}, "disagrees", id="change7-disagrees"),
        pytest.param({"dim": 3}, "disagrees", id="change8-disagrees"),
    ])
    def test_malformed_record_rejected(self, change, match):
        d = dict(version_1_record(sample_base(5, 4, seed=21)), **change)
        with pytest.raises(ValueError, match=match):
            base_from_dict(d)

    @pytest.mark.parametrize("change", [
        {"modulus": True},
        {"phase_indices": [1, True, 3, 0]},
        {"phase_indices": [1, 2, 2**70, 0]},  # once an OverflowError
        {"phase_indices": [1, 2, 2**63, 0]},
        {"phase_indices": []},
        {"version": True},
        {"version": 3},
    ])
    def test_malformed_version_2_record_rejected(self, change):
        with pytest.raises(ValueError):
            base_from_dict(dict(base_to_dict(sample_base(5, 4, seed=21)), **change))

    def test_version_1_record_read(self):
        base = sample_base(5, 4, seed=21, nonzero_only=True)
        loaded = base_from_dict(version_1_record(base))
        assert loaded.modulus == 5 and np.array_equal(loaded.phase_indices, base.phase_indices)

    def test_record_bytes_unchanged(self):
        d = base_to_dict(ModulusBase(modulus=5, phase_indices=np.array([4, 0, 2])))
        assert json.dumps(d) == (
            '{"format": "residuehd/modulus-base", "version": 2, "modulus": 5, "phase_indices": [4, 0, 2]}'
        )


class TestDenseFormValidation:
    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            PhasorVector.dense(np.array([2.0 + 0j]))

    def test_exact_indices_canonical(self):
        v = PhasorVector.exact(np.array([-1, 7]), 5)
        assert np.array_equal(v.indices, [4, 2])


class TestExactPeriodLimit:
    def test_limit_is_isqrt_of_int64_max(self):
        assert _MAX_PERIOD == 3037000499
        assert _MAX_PERIOD**2 <= 2**63 - 1 < (_MAX_PERIOD + 1) ** 2

    def test_boundary(self):
        top = PhasorVector.exact(np.array([-1, _MAX_PERIOD + 2]), _MAX_PERIOD)
        assert top.indices.tolist() == [_MAX_PERIOD - 1, 2]
        with pytest.raises(ValueError, match="period must lie"):
            PhasorVector.exact(np.array([1]), _MAX_PERIOD + 1)
        with pytest.raises(ValueError, match="period must lie"):
            PhasorVector.exact(np.array([1]), 0)

    def test_period_2_pow_40_rejected(self):
        with pytest.raises(ValueError, match="period must lie"):
            PhasorVector.exact(np.array([3, 10]), 2**40 + 15)

    def test_binding_at_limit_is_exact(self):
        # two indices just below the limit: their sum and product fit in int64
        a = PhasorVector.exact(np.array([_MAX_PERIOD - 1]), _MAX_PERIOD)
        assert hadamard(a, a).indices.tolist() == [(2 * (_MAX_PERIOD - 1)) % _MAX_PERIOD]
