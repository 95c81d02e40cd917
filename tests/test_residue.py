"""Residue composition, carry-free arithmetic, CRT, Landau's function."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies

from reference import rational_product
from residuehd.hexgrid import HexSystem
from residuehd.phasor import (
    _MAX_PERIOD,
    ModulusBase,
    PhasorVector,
    base_to_dict,
    conjugate,
    encode_integer,
    encode_rational,
    hadamard,
    similarity,
)
from residuehd.residue import (
    ResidueSystem,
    _is_prime,
    add,
    anti_base,
    crt_reconstruct,
    f_op,
    landau_g,
    load_system,
    make_residue_system,
    multiply,
    multiply_by_constant_inverse,
    save_system,
    subtract,
    system_from_dict,
    system_to_dict,
)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
integers = strategies.integers(-10**9, 10**9)


@strategies.composite
def prime_systems(draw):
    """Small residue systems over distinct primes that admit multiplication."""
    moduli = draw(strategies.lists(strategies.sampled_from(SMALL_PRIMES), min_size=1, max_size=3, unique=True))
    D = draw(strategies.integers(1, 24))
    return make_residue_system(moduli, D, seed=draw(strategies.integers(0, 2**16)), nonzero_only=True)


# prime moduli whose range M lies near the exact period limit, where an
# unreduced index sum or product nearly fills int64
LARGEST_PRIME = next(p for p in range(_MAX_PERIOD, 2, -1) if _is_prime(p))
NEAR_LIMIT_MODULI = ((46337, 65537), (2, 1518500213), (1433, 1447, 1459), (1000003,), (LARGEST_PRIME,))


@strategies.composite
def near_limit_systems(draw):
    """Prime residue systems at large ranges, D down to 1, that admit multiplication."""
    moduli = draw(strategies.sampled_from(NEAR_LIMIT_MODULI))
    D = draw(strategies.integers(1, 16))
    return make_residue_system(moduli, D, seed=draw(strategies.integers(0, 2**16)), nonzero_only=True)


@strategies.composite
def coprime_moduli(draw):
    """Pairwise co-prime moduli: each drawn value is kept if it is co-prime to those before it."""
    moduli = []
    for m in draw(strategies.lists(strategies.integers(2, 60), min_size=1, max_size=5)):
        if all(math.gcd(m, k) == 1 for k in moduli):
            moduli.append(m)
    return moduli


@pytest.fixture(scope="module")
def sys357():
    return make_residue_system([3, 5, 7], 64, seed=100)


@pytest.fixture(scope="module")
def prime_sys():
    return make_residue_system([3, 5, 7], 64, seed=101, nonzero_only=True)


class TestMakeResidueSystem:
    def test_range_and_budget(self, sys357):
        assert sys357.range_M == 105

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="4 and 6"):
            make_residue_system([4, 6], 16, seed=0)

    def test_consecutive_triple(self):
        sys = make_residue_system([199, 200, 201], 16, seed=1)
        assert sys.range_M == 7_999_800

    def test_float_modulus_rejected(self):
        # 3.5 was once truncated to 3
        with pytest.raises(ValueError, match="integer"):
            make_residue_system([3.5, 5], 8, 0)

    def test_numpy_moduli_accepted(self):
        sys, want = make_residue_system([np.int64(3), np.int32(5)], 8, 0), make_residue_system([3, 5], 8, 0)
        assert sys.moduli == (3, 5) and all(type(m) is int for m in sys.moduli)
        assert system_to_dict(sys) == system_to_dict(want)

    def test_reproducible(self):
        a = make_residue_system([3, 5], 32, seed=5)
        b = make_residue_system([3, 5], 32, seed=5)
        for ba, bb in zip(a.bases, b.bases):
            assert np.array_equal(ba.phase_indices, bb.phase_indices)


class TestEncode:
    def test_residues_of_20(self, sys357):
        factors = sys357.encode_factors(20)
        for factor, base, expected in zip(factors, sys357.bases, [2, 0, 6]):
            assert factor == encode_integer(base, expected)

    def test_zero_identity(self, sys357):
        assert np.all(sys357.encode(0).indices == 0)

    def test_period_M(self, sys357):
        assert sys357.encode(105) == sys357.encode(0)
        assert sys357.encode(313) == sys357.encode(313 % 105)

    def test_range_up_to_exact_limit(self):
        # M = 3037000498 is the largest even range within the limit
        sys = make_residue_system((2, 1518500249), 8, seed=2)
        M, x = sys.range_M, 2**40 + 3
        assert M <= _MAX_PERIOD
        expected = [
            sum(int(b.phase_indices[j]) * x * (M // b.modulus) for b in sys.bases) % M for j in range(8)
        ]
        assert sys.encode(x).indices.tolist() == expected

    def test_range_beyond_exact_limit_rejected(self):
        sys = make_residue_system((2, 1518500251), 8, seed=3)
        assert sys.range_M > _MAX_PERIOD
        with pytest.raises(ValueError, match="exact period limit"):
            sys.encode(5)

    @pytest.mark.parametrize("x", [2.7, 2.0, np.float64(3.0), True, "2"])
    def test_non_integer_raises(self, sys357, x):
        # encode and encode_factors (so encode_integer) once truncated 2.7 to 2
        for encode in (sys357.encode, sys357.encode_factors):
            with pytest.raises(TypeError):
                encode(x)

    def test_numpy_integers_encode_like_ints(self, sys357):
        for x in (np.int64(-9), np.int32(212), np.uint16(400)):
            assert sys357.encode(x) == sys357.encode(int(x))
            assert sys357.encode_factors(x) == sys357.encode_factors(int(x))

    def test_composed_base_is_the_code_of_encode_1(self, sys357):
        base = sys357.composed_base
        assert base is sys357.composed_base  # built once and kept
        assert isinstance(base, ModulusBase) and base.modulus == 105 and type(base.modulus) is int
        assert base.phase_indices.tobytes() == sys357.encode(1).indices.tobytes()
        for x in (0, 1, 52, 104, 105, -3):
            assert sys357.encode(x) == encode_integer(base, x)

    def test_rational_matches_integer(self, sys357):
        assert np.allclose(sys357.encode_rational(17.0).values, sys357.encode(17).values, atol=1e-12)

    @given(data=strategies.data(), D=strategies.integers(1, 256), seed=strategies.integers(0, 2**16))
    def test_rational_is_the_product_of_per_base_encodings(self, data, D, seed):
        moduli = data.draw(strategies.lists(strategies.sampled_from(SMALL_PRIMES), min_size=1, max_size=3,
                                            unique=True))
        sys = make_residue_system(moduli, D, seed)
        M = sys.range_M
        q = data.draw(strategies.floats(-M, M))
        v, ref = sys.encode_rational(q), rational_product(sys, q)
        if len(moduli) == 1:
            assert v == encode_rational(sys.bases[0], q)
        assert abs(similarity(v, ref) - 1.0) <= 1e-15
        # componentwise they differ by the rounding of the phase sum, whose
        # terms reach pi * m in magnitude: up to 9e-15 at moduli (7, 11, 13)
        assert np.abs(v.values - ref.values).max() <= len(moduli) * np.spacing(np.pi * sum(moduli))


class TestAddSubtract:
    def test_add_examples(self, sys357):
        assert add(sys357, sys357.encode(2), sys357.encode(3)) == sys357.encode(5)
        assert add(sys357, sys357.encode(104), sys357.encode(1)) == sys357.encode(0)

    def test_subtract_self_is_zero(self, sys357):
        v = sys357.encode(42)
        assert subtract(sys357, v, v) == sys357.encode(0)

    def test_random_pairs_bit_exact(self, sys357):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x1, x2 = int(rng.integers(105)), int(rng.integers(105))
            assert add(sys357, sys357.encode(x1), sys357.encode(x2)) == sys357.encode((x1 + x2) % 105)
            assert subtract(sys357, sys357.encode(x1), sys357.encode(x2)) == sys357.encode((x1 - x2) % 105)


class TestRingLaws:
    @given(sys=prime_systems(), x1=integers, x2=integers)
    def test_operations_agree_with_integers_mod_M(self, sys, x1, x2):
        M = sys.range_M
        assert add(sys, sys.encode(x1), sys.encode(x2)) == sys.encode((x1 + x2) % M)
        assert subtract(sys, sys.encode(x1), sys.encode(x2)) == sys.encode((x1 - x2) % M)
        prod = multiply(sys, sys.encode_factors(x1), sys.encode_factors(x2))
        assert prod == sys.encode((x1 * x2) % M)

    @given(sys=prime_systems(), x=integers, data=strategies.data())
    def test_constant_inverse_undoes_multiplication(self, sys, x, data):
        M = sys.range_M
        c = data.draw(integers.filter(lambda c: math.gcd(c, M) == 1))
        prod = multiply(sys, sys.encode_factors(x), sys.encode_factors(c))
        assert multiply_by_constant_inverse(sys, prod, c) == sys.encode(x)


class TestAntiBase:
    def test_inverse_of_3_mod_5(self):
        base = ModulusBase(modulus=5, phase_indices=np.array([3, 3, 3, 3]))
        assert np.all(anti_base(base).indices == 2)

    def test_inverse_of_1_is_1(self):
        base = ModulusBase(modulus=7, phase_indices=np.array([1, 1, 1]))
        assert np.all(anti_base(base).indices == 1)

    def test_exhaustive_mod7(self):
        base = ModulusBase(modulus=7, phase_indices=np.arange(1, 7, dtype=np.int64))
        ab = anti_base(base)
        assert np.all((base.phase_indices * ab.indices) % 7 == 1)

    def test_requires_prime(self):
        base = ModulusBase(modulus=6, phase_indices=np.array([1, 5]))
        with pytest.raises(ValueError, match="prime"):
            anti_base(base)

    def test_requires_nonzero(self):
        base = ModulusBase(modulus=5, phase_indices=np.array([0, 2]))
        with pytest.raises(ValueError, match="nonzero"):
            anti_base(base)

    def test_inverse_at_exact_period_limit(self):
        # the largest prime modulus allowed: squaring a residue nearly fills int64
        m = next(p for p in range(_MAX_PERIOD, 2, -1) if _is_prime(p))
        u = np.random.default_rng(5).integers(1, m, size=32)
        inv = anti_base(ModulusBase(modulus=m, phase_indices=u)).indices
        assert all(int(a) * int(b) % m == 1 for a, b in zip(u, inv))


class TestFOp:
    def test_index_product(self):
        import residuehd.phasor as ph

        a = ph.PhasorVector.exact(np.array([2]), 5)
        b = ph.PhasorVector.exact(np.array([3]), 5)
        assert f_op(a, b).indices[0] == 1  # 6 mod 5

    def test_index_one_is_neutral(self, prime_sys):
        import residuehd.phasor as ph

        base = prime_sys.bases[1]
        v = encode_integer(base, 3)
        ones = ph.PhasorVector.exact(np.ones(base.dim, dtype=np.int64), base.modulus)
        assert f_op(v, ones) == v

    def test_full_route_matches_direct_indices(self, prime_sys):
        rng = np.random.default_rng(1)
        for _ in range(30):
            x1, x2 = int(rng.integers(105)), int(rng.integers(105))
            for base in prime_sys.bases:
                m = base.modulus
                y = anti_base(base)
                out = f_op(f_op(encode_integer(base, x1), encode_integer(base, x2)), y)
                expected = (base.phase_indices * (x1 * x2)) % m
                assert np.array_equal(out.indices, expected)

    def test_period_beyond_exact_limit_rejected(self):
        # the index product (m-2)(m-5) would wrap int64 at this period
        m = 2**40 + 15
        with pytest.raises(ValueError):
            f_op(PhasorVector.exact([m - 2], m), PhasorVector.exact([m - 5], m))

    def test_period_mismatch(self):
        import residuehd.phasor as ph

        with pytest.raises(ValueError):
            f_op(ph.PhasorVector.exact(np.array([1]), 5), ph.PhasorVector.exact(np.array([1]), 7))


class TestMultiply:
    def test_figure_values(self, prime_sys):
        from reference import codebook_decode, full_codebook

        full = full_codebook(prime_sys)
        prod = multiply(prime_sys, prime_sys.encode_factors(2), prime_sys.encode_factors(3))
        assert codebook_decode(prod, full) == 6

    def test_multiplicative_identity(self, prime_sys):
        rng = np.random.default_rng(2)
        ones = prime_sys.encode_factors(1)
        for _ in range(20):
            x = int(rng.integers(105))
            assert multiply(prime_sys, prime_sys.encode_factors(x), ones) == prime_sys.encode(x)

    def test_sampled_products_bit_exact(self, prime_sys):
        rng = np.random.default_rng(3)
        for _ in range(300):
            x1, x2 = int(rng.integers(105)), int(rng.integers(105))
            prod = multiply(prime_sys, prime_sys.encode_factors(x1), prime_sys.encode_factors(x2))
            assert prod == prime_sys.encode((x1 * x2) % 105)

    def test_factor_lists_at_large_prime_modulus(self):
        # inverts only the D drawn indices, not all m residues
        sys = make_residue_system([1000003], 64, seed=8, nonzero_only=True)
        x1, x2 = 987654, 123457
        prod = multiply(sys, sys.encode_factors(x1), sys.encode_factors(x2))
        assert prod == sys.encode(x1 * x2 % 1000003)

    def test_composed_mode_matches_factor_lists(self):
        sys = make_residue_system([3, 5, 7], 512, seed=103, nonzero_only=True)
        prod = multiply(sys, sys.encode(4), sys.encode(9))
        assert prod == multiply(sys, sys.encode_factors(4), sys.encode_factors(9)) == sys.encode(36)

    def test_composed_mode_runs_no_decoder(self, monkeypatch):
        from residuehd import resonator

        def forbidden(*args, **kwargs):
            raise AssertionError("composed multiply must not decode")

        monkeypatch.setattr(resonator, "resonator_factorize", forbidden)
        sys = make_residue_system([3, 5, 7], 512, seed=103, nonzero_only=True)
        assert multiply(sys, sys.encode(4), sys.encode(9)) == sys.encode(36)

    def test_composed_mode_rejects_dense_operand(self):
        sys = make_residue_system([3, 5, 7], 256, seed=0, nonzero_only=True)
        with pytest.raises(ValueError, match="exact composed vector"):
            multiply(sys, sys.encode(4).to_dense(), sys.encode(2))

    def test_factor_list_rejects_dense_factor(self):
        # a dense factor once raised AttributeError from its missing period
        sys = make_residue_system([3, 5, 7], 256, seed=0, nonzero_only=True)
        f0, f1, f2 = sys.encode_factors(4)
        with pytest.raises(ValueError, match="exact"):
            multiply(sys, [f0.to_dense(), f1, f2], sys.encode_factors(2))

    def test_decode_then_multiply_dense_operands(self):
        from residuehd.resonator import ResonatorConfig, decode_residue_number

        sys = make_residue_system([3, 5, 7], 512, seed=103, nonzero_only=True)
        cfg = ResonatorConfig(max_iters=30, max_restarts=3, seed=0)
        factors = []
        for x in (4, 9):
            decoded, state = decode_residue_number(sys, sys.encode(x).to_dense(), cfg)
            assert state.converged
            factors.append(sys.encode_factors(decoded))
        assert multiply(sys, *factors) == sys.encode(36)

    @pytest.mark.parametrize("moduli, D", [((23, 29, 31), 1024), ((50021, 50023), 512)], ids=["K3", "K2-large"])
    def test_composed_mode_where_a_resonator_decode_fails(self, moduli, D):
        # a resonator decode with the default config does not recover
        # these operands; the CRT split cannot fail
        sys = make_residue_system(moduli, D, seed=0, nonzero_only=True)
        x1, x2 = 1234, 5678
        assert multiply(sys, sys.encode(x1), sys.encode(x2)) == sys.encode(x1 * x2 % sys.range_M)

    @given(sys=prime_systems(), x1=integers, x2=integers)
    def test_split_inverts_encode(self, sys, x1, x2):
        assert sys.split(sys.encode(x1)) == sys.encode_factors(x1)
        by_lists = multiply(sys, sys.encode_factors(x1), sys.encode_factors(x2))
        assert multiply(sys, sys.encode(x1), sys.encode(x2)) == by_lists
        assert multiply(sys, sys.encode(x1), sys.encode_factors(x2)) == by_lists

    def test_split_rejects_wrong_period(self, prime_sys):
        with pytest.raises(ValueError, match="period M"):
            prime_sys.split(prime_sys.encode_factors(2)[0])

    def test_composite_modulus_rejected(self):
        sys = make_residue_system([4, 9], 16, seed=104, nonzero_only=True)
        with pytest.raises(ValueError, match="prime"):
            multiply(sys, sys.encode_factors(1), sys.encode_factors(1))

    def test_distributivity(self, prime_sys):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b, c = (int(rng.integers(105)) for _ in range(3))
            bc = add(prime_sys, prime_sys.encode(b), prime_sys.encode(c))
            left = multiply(prime_sys, prime_sys.encode_factors(a), prime_sys.encode_factors((b + c) % 105))
            right = add(
                prime_sys,
                multiply(prime_sys, prime_sys.encode_factors(a), prime_sys.encode_factors(b)),
                multiply(prime_sys, prime_sys.encode_factors(a), prime_sys.encode_factors(c)),
            )
            assert bc == prime_sys.encode((b + c) % 105)
            assert left == right

    def test_constant_inverse(self, prime_sys):
        rng = np.random.default_rng(5)
        c = 4
        c_inv = pow(c, -1, 105)
        for _ in range(20):
            x = int(rng.integers(105))
            out = multiply_by_constant_inverse(prime_sys, prime_sys.encode(x), c)
            assert out == prime_sys.encode((x * c_inv) % 105)
        with pytest.raises(ValueError, match="invertible"):
            multiply_by_constant_inverse(prime_sys, prime_sys.encode(1), 21)

    def test_constant_inverse_operand_beyond_exact_limit_rejected(self):
        # M is 2.8e14: index times c^(-1) would wrap int64, so no exact
        # vector of that period can be built for it to multiply
        sys = make_residue_system((65521, 65519, 65537), 8, seed=106, nonzero_only=True)
        a, b, c = sys.encode_factors(12345)
        with pytest.raises(ValueError, match="exact period limit"):
            hadamard(hadamard(a, b), c)


class TestDerivedConstantsCached:
    """A system keeps its anti-bases and its composed base; each answer has the bits of the chains they replace."""

    @staticmethod
    def chain(parts):
        out = None
        for part in parts:
            out = part if out is None else hadamard(out, part)
        return out

    @given(sys=prime_systems(), pairs=strategies.lists(strategies.tuples(integers, integers), min_size=2, max_size=4))
    def test_multiply_equals_anti_base_chain(self, sys, pairs):
        for x1, x2 in pairs:  # the first call fills the cache, the rest read it
            a, b = sys.encode_factors(x1), sys.encode_factors(x2)
            want = self.chain(f_op(f_op(fa, fb), anti_base(base)) for base, fa, fb in zip(sys.bases, a, b))
            got = multiply(sys, a, b)
            assert (got.period, got.indices.tobytes()) == (want.period, want.indices.tobytes())

    @given(moduli=coprime_moduli(), D=strategies.integers(1, 24), seed=strategies.integers(0, 2**16),
           xs=strategies.lists(strategies.integers(-10**30, 10**30), min_size=2, max_size=4))
    def test_encode_equals_factor_chain(self, moduli, D, seed, xs):
        sys = make_residue_system(moduli, D, seed)
        M = sys.range_M
        for x in xs + [M, M + 1, -1, -M - 1]:
            want, got = self.chain(sys.encode_factors(x)), sys.encode(x)
            assert (got.period, got.indices.tobytes()) == (want.period, want.indices.tobytes())

    def test_anti_base_runs_once_per_system(self, monkeypatch):
        calls = []

        def counted(base):
            calls.append(base)
            return anti_base(base)

        monkeypatch.setattr("residuehd.residue.anti_base", counted)
        systems = [make_residue_system([3, 5, 7], 16, seed=s, nonzero_only=True) for s in (1, 2)]
        for sys in systems:
            for x in range(4):
                multiply(sys, sys.encode_factors(x), sys.encode(x + 1))
        assert [id(b) for b in calls] == [id(b) for sys in systems for b in sys.bases]

    @pytest.mark.parametrize("bases, match", [
        ([ModulusBase(4, np.array([1, 3])), ModulusBase(9, np.array([2, 5]))], "prime"),
        ([ModulusBase(5, np.array([1, 2])), ModulusBase(7, np.array([3, 0]))], "nonzero"),
    ], ids=["composite", "zero-index"])
    def test_failed_multiply_keeps_nothing(self, bases, match):
        sys = ResidueSystem(bases)
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                multiply(sys, sys.encode_factors(1), sys.encode_factors(1))

    def test_encode_beyond_exact_limit_raises_every_call(self):
        sys = make_residue_system((2, 1518500251), 8, seed=3)
        for _ in range(3):
            with pytest.raises(ValueError, match="exact period limit"):
                sys.encode(5)

    def test_anti_bases_are_read_once_built(self):
        sys = make_residue_system([3, 5, 7], 16, seed=5, nonzero_only=True)
        assert sys.anti_bases is sys.anti_bases
        assert list(sys.anti_bases) == [anti_base(base) for base in sys.bases]

    def test_records_hold_no_cache(self):
        sys = make_residue_system([3, 5, 7], 16, seed=4, nonzero_only=True)
        before = json.dumps(system_to_dict(sys))
        multiply(sys, sys.encode(2), sys.encode(3))
        assert json.dumps(system_to_dict(sys)) == before

    def test_bases_cannot_change_under_a_cache(self):
        indices = np.array([1, 2, 3, 4])
        sys = ResidueSystem([ModulusBase(5, indices), ModulusBase(7, np.array([6, 5, 4, 3]))])
        want = sys.encode(9)
        indices[0] = 3  # the caller's array stays writable, and the base keeps its own copy
        assert sys.encode(9) == want
        with pytest.raises(ValueError, match="read-only"):
            sys.bases[0].phase_indices[0] = 3


class TestNearExactLimit:
    """Each exact operation leaves the one reduction to PhasorVector.exact; near the limit its results stay exact."""

    @given(sys=near_limit_systems(), x1=strategies.integers(-10**20, 10**20),
           x2=strategies.integers(-10**20, 10**20), c=strategies.integers(2, 10**6))
    def test_results_reduced_and_equal_integer_arithmetic(self, sys, x1, x2, c):
        M = sys.range_M
        assert all(_is_prime(m) for m in sys.moduli) and M <= _MAX_PERIOD
        c = next(k for k in range(c, c + M) if math.gcd(k, M) == 1)  # the first invertible constant from c
        a, b = sys.encode(x1), sys.encode(x2)
        fa, fb = sys.encode_factors(x1), sys.encode_factors(x2)
        # encode itself, against the composed code in Python integers
        w = [sum(int(base.phase_indices[j]) * (M // base.modulus) for base in sys.bases) % M for j in range(sys.dim)]
        assert a.indices.tolist() == [wj * x1 % M for wj in w]
        results = [
            (add(sys, a, b), sys.encode(x1 + x2)),
            (subtract(sys, a, b), sys.encode(x1 - x2)),
            (conjugate(a), sys.encode(-x1)),
            (multiply(sys, fa, fb), sys.encode(x1 * x2)),
            (multiply(sys, a, b), sys.encode(x1 * x2)),
            (multiply_by_constant_inverse(sys, a, c), sys.encode(x1 * pow(c, -1, M))),
        ]
        split = sys.split(a)
        results += zip(split, fa)
        results.append((sys._compose(split), a))
        for fp, fq in zip(fa, fb):
            want = [int(p) * int(q) % fp.period for p, q in zip(fp.indices, fq.indices)]
            results.append((f_op(fp, fq), PhasorVector.exact(want, fp.period)))
        for got, want in results:
            assert 0 <= got.indices.min() and got.indices.max() < got.period
            assert got == want


class TestResidueKernel:
    def test_orthogonality_monte_carlo(self):
        D = 10_000
        sys = make_residue_system([3, 5, 7], D, seed=105)
        from residuehd.phasor import similarity

        rng = np.random.default_rng(6)
        bound = 4 / math.sqrt(D)
        violations = 0
        trials = 300
        for _ in range(trials):
            x1, x2 = int(rng.integers(105)), int(rng.integers(105))
            s = similarity(sys.encode(x1), sys.encode(x2))
            if x1 == x2:
                assert s == 1.0
            elif abs(s) > bound:
                violations += 1
        assert violations / trials <= 0.01


def _landau_brute_force(b):
    # maximum lcm over all integer partitions, by direct enumeration
    best = [1]

    def rec(remaining, max_part, current_lcm):
        if current_lcm > best[0]:
            best[0] = current_lcm
        for part in range(min(remaining, max_part), 1, -1):
            rec(remaining - part, part, math.lcm(current_lcm, part))

    rec(b, b, 1)
    return best[0]


class TestLandau:
    def test_small_values(self):
        assert landau_g(1) == 1
        assert landau_g(15) == 105

    def test_matches_brute_force(self):
        for b in range(1, 17):
            assert landau_g(b) == _landau_brute_force(b)

    def test_monotone(self):
        values = [landau_g(b) for b in range(1, 41)]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_budget_bound_for_coprime_sets(self):
        for moduli in ([3, 5, 7], [2, 3, 5], [4, 9, 5]):
            assert landau_g(sum(moduli)) >= math.prod(moduli)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            landau_g(61)
        with pytest.raises(ValueError):
            landau_g(0)


class TestCRT:
    def test_known_reconstruction(self):
        assert crt_reconstruct([2, 0, 6], [3, 5, 7]) == 20

    def test_zeros(self):
        assert crt_reconstruct([0, 0, 0], [3, 5, 7]) == 0

    def test_exhaustive_round_trip(self):
        for x in range(105):
            assert crt_reconstruct([x % 3, x % 5, x % 7], [3, 5, 7]) == x

    @given(moduli=coprime_moduli(), data=strategies.data())
    def test_round_trip(self, moduli, data):
        M = math.prod(moduli)
        x = data.draw(strategies.integers(0, M - 1))
        assert crt_reconstruct([x % m for m in moduli], moduli) == x
        residues = [data.draw(strategies.integers(0, m - 1)) for m in moduli]
        y = crt_reconstruct(residues, moduli)
        assert 0 <= y < M and [y % m for m in moduli] == residues

    @pytest.mark.parametrize("residues, moduli", [
        ([1.9, 2, 3], (3, 5, 7)),  # once truncated to 1, giving 52
        ([1, 2, 3], (3.0, 5, 7)),
        ([True, 2, 3], (3, 5, 7)),
        ([1, 2, 3], (3, 5, True)),
    ], ids=["float-residue", "float-modulus", "bool-residue", "bool-modulus"])
    def test_non_integers_raise(self, residues, moduli):
        with pytest.raises(TypeError):
            crt_reconstruct(residues, moduli)

    def test_numpy_integers_accepted(self):
        assert crt_reconstruct(np.array([2, 0, 6]), np.array([3, 5, 7], dtype=np.int32)) == 20

    def test_errors(self):
        with pytest.raises(ValueError):
            crt_reconstruct([1, 1], [4, 6])
        with pytest.raises(ValueError):
            crt_reconstruct([5, 0], [3, 5])


class TestSerialization:
    def test_system_round_trip(self, tmp_path):
        sys = make_residue_system([3, 5, 7], 32, seed=106, nonzero_only=True)
        save_system(sys, tmp_path / "system.json")
        restored = load_system(tmp_path / "system.json")
        assert restored.moduli == sys.moduli
        for a, b in zip(restored.bases, sys.bases):
            assert np.array_equal(a.phase_indices, b.phase_indices)

    @given(moduli=coprime_moduli(), D=strategies.integers(1, 32), seed=strategies.integers(0, 2**32),
           nonzero_only=strategies.booleans())
    def test_dict_round_trip(self, moduli, D, seed, nonzero_only):
        sys = make_residue_system(moduli, D, seed, nonzero_only=nonzero_only)
        restored = system_from_dict(json.loads(json.dumps(system_to_dict(sys))))
        assert (restored.moduli, restored.dim) == (sys.moduli, D)
        for a, b in zip(restored.bases, sys.bases, strict=True):
            assert a.modulus == b.modulus
            assert np.array_equal(a.phase_indices, b.phase_indices)

    def test_bad_format(self):
        with pytest.raises(ValueError):
            system_from_dict({"format": "nope"})

    @pytest.mark.parametrize("doc", [[1], None, "residuehd/residue-system"])
    def test_non_dict_record_rejected(self, doc):
        # a list once raised AttributeError
        with pytest.raises(ValueError, match="not a residue-system record"):
            system_from_dict(doc)

    def test_record_with_version_1_bases_rejected(self):
        # the version-2 system record as first written, holding version-1 base records
        old = {"format": "residuehd/residue-system", "version": 2, "bases": [
            {"format": "residuehd/modulus-base", "version": 1, "modulus": 3, "dim": 4, "seed": 11,
             "nonzero_only": False, "phase_indices": [0, 2, 1, 2]},
            {"format": "residuehd/modulus-base", "version": 1, "modulus": 5, "dim": 4, "seed": 12,
             "nonzero_only": True, "phase_indices": [4, 1, 1, 3]},
        ]}
        with pytest.raises(ValueError, match="modulus-base version: 1"):
            system_from_dict(old)

    @staticmethod
    def assert_round_trips(sys):
        restored = system_from_dict(json.loads(json.dumps(system_to_dict(sys))))
        assert (restored.moduli, restored.dim) == (sys.moduli, sys.dim)
        for a, b in zip(restored.bases, sys.bases, strict=True):
            assert a.modulus == b.modulus
            assert np.array_equal(a.phase_indices, b.phase_indices)

    def test_hex_directions_round_trip(self):
        # the third direction's bases are derived from the first two, not drawn from their seeds
        for direction in HexSystem((3, 5), 16, 0).directions:
            self.assert_round_trips(direction)

    def test_hand_built_system_round_trip(self):
        self.assert_round_trips(ResidueSystem([
            ModulusBase(modulus=3, phase_indices=np.array([1, 2, 0, 1])),
            ModulusBase(modulus=5, phase_indices=np.array([4, 4, 1, 2])),
        ]))

    def test_version_1_record_rejected(self):
        old = {"format": "residuehd/residue-system", "version": 1, "moduli": [3, 5], "dim": 8,
               "seeds": [1, 2], "nonzero_only": False}
        with pytest.raises(ValueError, match="version: 1"):
            system_from_dict(old)

    def test_malformed_base_record_rejected(self):
        d = system_to_dict(make_residue_system([3, 5], 8, seed=1))
        d["bases"][1]["phase_indices"][0] = 1.5
        with pytest.raises(ValueError, match="integers"):
            system_from_dict(d)
        with pytest.raises(ValueError, match="list of base records"):
            system_from_dict(dict(d, bases=None))

    def test_bases_are_the_whole_state(self):
        bases = [ModulusBase(modulus=3, phase_indices=np.array([1, 2])),
                 ModulusBase(modulus=np.int64(4), phase_indices=np.array([3, 0]))]
        sys = ResidueSystem(bases)
        assert (sys.moduli, sys.dim) == ((3, 4), 2) and type(sys.moduli[1]) is int
        with pytest.raises(ValueError, match="of one dimension"):
            ResidueSystem([bases[0], ModulusBase(modulus=5, phase_indices=np.array([1]))])
        with pytest.raises(ValueError, match="co-prime"):
            ResidueSystem([bases[1], ModulusBase(modulus=6, phase_indices=np.array([1, 1]))])
        with pytest.raises(ValueError):
            ResidueSystem([])
        assert system_to_dict(sys)["bases"] == [base_to_dict(b) for b in bases]
