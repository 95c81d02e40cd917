"""Factorization dynamics, decoding, cost accounting, capacity machinery."""

import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from hypothesis.extra.numpy import arrays

from residuehd import scene, subsetsum
from residuehd.phasor import (
    ModulusBase,
    NoiseModel,
    PhasorVector,
    add_phase_noise,
    encode_integer,
    phase_normalize,
    sample_base,
    similarity,
)
from residuehd.residue import make_residue_system
from residuehd.resonator import (
    VERIFY_THRESHOLD,
    CapacityResult,
    Codebook,
    ResonatorConfig,
    ResonatorState,
    _claim_cosine,
    _cosine,
    _random_init,
    _unbind,
    bits_per_vector,
    build_residue_codebooks,
    capacity_experiment,
    codebook_decode,
    consecutive_primes,
    decode_residue_number,
    resonator_factorize,
    resonator_step,
    sub_integer_decode,
)


@pytest.fixture(scope="module")
def sys357():
    return make_residue_system([3, 5, 7], 1024, seed=50)


@pytest.fixture(scope="module")
def books357(sys357):
    return build_residue_codebooks(sys357)


class TestCodebooks:
    def test_sizes_and_labels(self, sys357, books357):
        assert [cb.n_entries for cb in books357] == [3, 5, 7]
        assert sum(cb.n_entries for cb in books357) == 15

    def test_entries_are_residue_encodings(self, sys357, books357):
        for base, cb in zip(sys357.bases, books357):
            for r in range(base.modulus):
                assert np.array_equal(cb.matrix[r], encode_integer(base, r).values)

    @settings(max_examples=60, deadline=None)
    @given(data=strategies.data(), m=strategies.integers(1, 12), D=strategies.integers(1, 96),
           real_x=strategies.booleans())
    def test_project_equals_conjugate_matmul(self, data, m, D, real_x):
        entry = strategies.complex_numbers(max_magnitude=1e6)
        matrix = data.draw(arrays(np.complex128, (m, D), elements=entry))
        if real_x:
            x = data.draw(arrays(np.float64, D, elements=strategies.floats(-1e6, 1e6)))
        else:
            x = data.draw(arrays(np.complex128, D, elements=entry))
        cb = Codebook(matrix)
        assert np.array_equal(cb.project(x), cb.matrix.conj() @ x)

    @settings(max_examples=60, deadline=None)
    @given(m=strategies.integers(1, 400), D=strategies.integers(1, 2048), real_x=strategies.booleans(),
           seed=strategies.integers(0, 2**16))
    def test_modular_codebook_equals_dense(self, m, D, real_x, seed):
        # the group-sum step against the matrix products on the dense rows
        rng = np.random.default_rng(seed)
        base = ModulusBase(m, rng.integers(0, m, D))
        cb = base
        assert (cb.n_entries, cb.dim) == (m, D)
        dense = np.stack([encode_integer(base, r).values for r in range(m)])
        assert np.array_equal(cb.matrix, dense)  # built from row(r)
        x = rng.normal(size=D) if real_x else rng.normal(size=D) + 1j * rng.normal(size=D)
        dense_book, want_est = Codebook(dense), np.empty(D, dtype=np.complex128)
        want_c = dense_book.coefficients(dense_book.step(x, want_est))
        assert np.array_equal(want_c, dense.conj() @ x)
        cleaned = want_c @ dense
        assert np.array_equal(want_est, phase_normalize(cleaned).values)

        def rel_err(got, want):
            return np.linalg.norm(got - want) / np.linalg.norm(want)

        est = np.empty(D, dtype=np.complex128)
        c = cb.coefficients(cb.step(x, est))
        assert rel_err(c, want_c) <= 1e-12
        assert rel_err(cb.project(x), want_c) <= 1e-12
        assert np.allclose(np.abs(est), 1.0, atol=1e-15)
        # each phase weighted by its magnitude: a component that cleans up to
        # nearly zero has an ill-conditioned phase in both computations
        assert rel_err(est * np.abs(cleaned), cleaned) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(m=strategies.integers(1, 400), D=strategies.integers(1, 512),
           kind=strategies.sampled_from(["real", "complex", "strided"]), seed=strategies.integers(0, 2**16))
    def test_group_sum_step_bits(self, m, D, kind, seed):
        # the interleaved group sum against one bincount per part, bit for bit
        rng = np.random.default_rng(seed)
        cb = ModulusBase(m, rng.integers(0, m, D))
        u = cb.phase_indices
        if kind == "real":
            x = rng.normal(size=D)
        else:
            z = rng.normal(size=2 * D) + 1j * rng.normal(size=2 * D)
            x = z[:D] if kind == "complex" else z[::2]
        out = np.empty(D, dtype=np.complex128)
        h = cb.step(x, out)
        want_h = np.bincount(u, x.real, m) + 1j * np.bincount(u, x.imag, m)
        assert h.tobytes() == want_h.tobytes()
        assert cb.coefficients(h).tobytes() == cb.project(x).tobytes()
        assert out.tobytes() == phase_normalize(h).values[u].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=strategies.data(), m=strategies.integers(1, 12), D=strategies.integers(1, 96),
           seed=strategies.integers(0, 2**16))
    def test_steps_equal_normalized_summaries(self, data, m, D, seed):
        # each step writes into one row of a stack of estimates, as the sweep does
        rng = np.random.default_rng(seed)
        x = rng.normal(size=D) + 1j * rng.normal(size=D)
        entry = strategies.complex_numbers(max_magnitude=1e6)
        dense = Codebook(data.draw(arrays(np.complex128, (m, D), elements=entry)))
        out = np.empty((2, D), dtype=np.complex128)
        c = dense.step(x, out[1])
        assert c.tobytes() == dense.project(x).tobytes()
        assert out[1].tobytes() == phase_normalize(c @ dense.matrix).values.tobytes()
        modular = ModulusBase(m, rng.integers(0, m, D))
        h = modular.step(x, out[0])
        assert h.tobytes() == modular._group_sum(x).tobytes()  # the summary is not normalized
        assert out[0].tobytes() == phase_normalize(h).values[modular.phase_indices].tobytes()

    def test_codebook_rejects_no_entries(self):
        with pytest.raises(ValueError, match="at least one entry"):
            Codebook(np.zeros((0, 8), dtype=complex))

    def test_codebook_rejects_zero_dim(self):
        with pytest.raises(ValueError, match="dim >= 1"):
            Codebook(np.zeros((3, 0), dtype=complex))

    def test_large_modular_decode_keeps_no_dense_rows(self):
        # at (499, 503), D=8192 the dense codebooks would take 2 x 64 MB
        sys = make_residue_system([499, 503], 8192, seed=4)
        x = 123457
        v = sys.encode(x).to_dense()
        tracemalloc.start()
        try:
            books = build_residue_codebooks(sys)
            got, st = decode_residue_number(sys, v, ResonatorConfig(max_iters=30, max_restarts=3, seed=0),
                                            codebooks=books)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert st.converged and got == x
        assert peak < 16 * 2**20


class TestCodebookDecode:
    def test_decodes_own_entry(self, sys357, books357):
        assert codebook_decode(encode_integer(sys357.bases[1], 3), books357[1]) == 3

    def test_full_codebook_exhaustive(self, sys357):
        full = Codebook.from_vectors([sys357.encode(x) for x in range(105)])
        for x in range(105):
            assert codebook_decode(sys357.encode(x), full) == x

    def test_dim_mismatch(self, books357):
        with pytest.raises(ValueError):
            codebook_decode(np.ones(3, dtype=complex), books357[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_input_rejected(self, sys357, books357, bad):
        large = sample_base(499, sys357.dim, 0)
        for book in (books357[1], large):
            v = np.ones(sys357.dim, dtype=complex)
            v[7] = bad
            with pytest.raises(ValueError, match="non-finite"):
                codebook_decode(v, book)

    def test_overflowing_input_rejected(self, sys357, books357):
        # finite, but every inner product overflows to NaN
        v = encode_integer(sys357.bases[1], 4).values * 1e308
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            codebook_decode(v, books357[1])

    @given(data=strategies.data(), D=strategies.integers(1, 16))
    def test_ties_go_to_lowest_label(self, data, D):
        # an entry's label is its row. Small Gaussian integers keep every
        # score exact, so duplicated rows tie exactly; the expected winner
        # is found in integer arithmetic
        small = strategies.integers(-2, 2)
        distinct = data.draw(arrays(np.int64, (data.draw(strategies.integers(1, 4)), D, 2), elements=small))
        rows = data.draw(strategies.lists(strategies.integers(0, len(distinct) - 1), min_size=1, max_size=8))
        x = data.draw(arrays(np.int64, (D, 2), elements=small))
        parts = distinct[rows]
        scores = [int(np.sum(part[:, 0] * x[:, 0] + part[:, 1] * x[:, 1])) for part in parts]
        expected = scores.index(max(scores))
        cb = Codebook(parts[..., 0] + 1j * parts[..., 1])
        assert codebook_decode(x[:, 0] + 1j * x[:, 1], cb) == expected


class TestResonatorStep:
    def test_snaps_with_correct_context(self, sys357, books357):
        x = 59
        v = sys357.encode(x)
        estimates = np.stack([encode_integer(b, x).values for b in sys357.bases])
        estimates[1] = np.exp(1j * np.random.default_rng(0).uniform(0, 2 * np.pi, sys357.dim))
        state = ResonatorState(estimates=estimates)
        resonator_step(v, state, books357, 1)
        assert state.labels[1] == x % 5
        assert similarity(
            type(v).dense(state.estimates[1], validate=False), encode_integer(sys357.bases[1], x % 5)
        ) > 0.8

    def test_single_factor_equals_cleanup(self, sys357, books357):
        v = encode_integer(sys357.bases[0], 2)
        state = ResonatorState(estimates=np.ones((1, sys357.dim), dtype=complex))
        resonator_step(v, state, [books357[0]], 0)
        coeffs = books357[0].matrix.conj() @ v.values
        cleaned = coeffs @ books357[0].matrix
        expected = cleaned / np.abs(cleaned)
        assert np.allclose(state.estimates[0], expected, atol=1e-12)

    def test_idempotent_with_fixed_context(self, sys357, books357):
        x = 33
        v = sys357.encode(x)
        estimates = np.stack([encode_integer(b, x).values for b in sys357.bases])
        state = ResonatorState(estimates=estimates.copy())
        resonator_step(v, state, books357, 0)
        first = state.estimates[0].copy()
        resonator_step(v, state, books357, 0)
        assert np.array_equal(state.estimates[0], first)

    def test_counts_evaluations(self, sys357, books357):
        v = sys357.encode(7)
        state = ResonatorState(estimates=np.ones((3, sys357.dim), dtype=complex))
        resonator_step(v, state, books357, 2)
        assert state.codebook_evaluations == 7
        resonator_step(v, state, books357, 0)
        assert state.codebook_evaluations == 10

    def test_bad_factor_index(self, sys357, books357):
        state = ResonatorState(estimates=np.ones((3, sys357.dim), dtype=complex))
        with pytest.raises(ValueError):
            resonator_step(sys357.encode(0), state, books357, 5)


def _k1_case():
    sys = make_residue_system([7], 256, seed=60)
    return encode_integer(sys.bases[0], 4).values, build_residue_codebooks(sys)


def _k3_case():
    sys = make_residue_system([3, 5, 7], 512, seed=61)
    v = add_phase_noise(sys.encode(52), NoiseModel(kappa=4.0, seed=1)).values
    return v, build_residue_codebooks(sys)


def _subset_sum_case():
    ssys = subsetsum.make_subsetsum_system(200, 2048, seed=62)
    instance = subsetsum.generate_instance(12, ssys, seed=3)
    return ssys.encode(instance.target).values, subsetsum.build_factors(instance.items, ssys)


def _scene_case():
    hsys = make_residue_system([3, 5, 7], 1024, seed=63)
    vsys = make_residue_system([3, 5, 7], 1024, seed=64)
    codec = scene.SceneCodec(hsys, vsys, 4, seed=65)
    objects = scene.make_synthetic_objects(5, 4, (105, 105), footprint=8, coeffs_per_object=6, seed=66)
    s = codec.encode_scene(scene.translate_maps(objects[2], 40, 17))
    books = [codec.build_object_codebook(objects)] + codec.layouts["standard"]
    return phase_normalize(s.values).values, books


SWEEP_CASES = [_k1_case, _k3_case, _subset_sum_case, _scene_case]


def _attempt_zero_init(books, seed):
    """The initial estimates resonator_factorize draws for its first attempt."""
    return _random_init(books, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))))


class _StepLog:
    """Wraps a codebook and logs (factor, residual, new estimate) for every step."""

    def __init__(self, book, j, log):
        self.book, self.j, self.log = book, j, log
        self.n_entries, self.dim = book.n_entries, book.dim

    def step(self, x, out):
        summary = self.book.step(x, out)
        self.log.append((self.j, x.copy(), out.copy()))
        return summary

    def coefficients(self, summary):
        return self.book.coefficients(summary)

    def row(self, i):
        return self.book.row(i)


class TestSweepMatchesStepwise:
    """The sweep's running unbound product against the definitional unbinding."""

    @pytest.mark.parametrize("case", SWEEP_CASES)
    def test_each_residual_unbinds_current_estimates(self, case):
        v, books = case()
        log = []
        st = resonator_factorize(v, [_StepLog(b, j, log) for j, b in enumerate(books)],
                                 ResonatorConfig(max_iters=3, seed=11))
        assert len(log) == st.iteration * len(books)
        est = _attempt_zero_init(books, 11)
        for j, residual, new in log:
            assert np.max(np.abs(residual - _unbind(v, est, j))) <= 1e-12
            est[j] = new

    @pytest.mark.parametrize("case", SWEEP_CASES)
    @pytest.mark.parametrize("max_iters", [1, 2, 3])
    def test_attempt_zero(self, case, max_iters):
        v, books = case()
        st = resonator_factorize(v, books, ResonatorConfig(max_iters=max_iters, seed=11))
        ref = ResonatorState(estimates=_attempt_zero_init(books, 11))
        for _ in range(st.iteration):
            for j in range(len(books)):
                resonator_step(v, ref, books, j)
        assert 1 <= st.iteration <= max_iters
        assert np.array_equal(st.labels, ref.labels)
        assert st.codebook_evaluations == ref.codebook_evaluations
        # a two-entry cleanup z(0) + c z(s) nearly cancels in a few components,
        # and the phase of such a component turns a rounding difference of the
        # residual into up to ~1e-9 within three sweeps; the residuals
        # themselves agree to 1e-12 (test above)
        tol = 1e-8 if case is _subset_sum_case else 1e-12
        assert np.max(np.abs(st.estimates - ref.estimates)) <= tol


class TestRandomInit:
    def test_roots_of_unity_per_rng_state(self, books357):
        a = _random_init(books357, np.random.default_rng(7))
        assert a.shape == (3, books357[0].dim)
        assert np.array_equal(a, _random_init(books357, np.random.default_rng(7)))
        assert not np.array_equal(a, _random_init(books357, np.random.default_rng(8)))
        assert np.allclose(np.abs(a), 1.0, atol=1e-15)
        # every component is exactly the 2^16-th root of unity nearest its phase
        k = np.rint(np.angle(a) * (2**16 / (2 * np.pi))).astype(np.int64)
        assert np.array_equal(a, PhasorVector.exact(k, 2**16).values.reshape(a.shape))

    def test_out_buffer_gets_the_same_draw(self, books357):
        out = np.empty((3, books357[0].dim), dtype=np.complex128)
        assert _random_init(books357, np.random.default_rng(7), out=out) is out
        assert np.array_equal(out, _random_init(books357, np.random.default_rng(7)))


class TestFactorize:
    def test_one_hot_stability(self, sys357, books357):
        x = 88
        v = sys357.encode(x)
        truth = np.stack([encode_integer(b, x).values for b in sys357.bases])
        state = ResonatorState(estimates=truth.copy())
        for j in range(3):
            resonator_step(v, state, books357, j)
        assert tuple(state.labels) == (x % 3, x % 5, x % 7)
        sim = np.real(np.vdot(truth.ravel(), state.estimates.ravel())) / truth.size
        assert sim > 0.95

    def test_desk_scale_accuracy(self, sys357, books357):
        rng = np.random.default_rng(1)
        hits = 0
        trials = 200
        for t in range(trials):
            x = int(rng.integers(105))
            st = resonator_factorize(sys357.encode(x), books357, ResonatorConfig(max_iters=30, seed=t))
            hits += tuple(st.labels) == (x % 3, x % 5, x % 7)
        assert hits / trials >= 0.99

    def test_evaluation_accounting_identity(self, sys357, books357):
        st = resonator_factorize(sys357.encode(31), books357, ResonatorConfig(max_iters=30, seed=0))
        assert st.codebook_evaluations == st.iteration * 15

    def test_adversarial_input_flagged(self, sys357, books357):
        rng = np.random.default_rng(2)
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, sys357.dim))
        cfg = ResonatorConfig(max_iters=20, max_restarts=2, seed=3)
        st = resonator_factorize(v, books357, cfg)
        assert not st.converged
        assert st.labels.shape == (3,)  # best-effort labels still reported

    def test_convergence_claim_reproduces_input(self, sys357, books357):
        rng = np.random.default_rng(4)
        inputs = [sys357.encode(5).values, sys357.encode(88).values,
                  np.exp(1j * rng.uniform(0, 2 * np.pi, sys357.dim))]
        for t, v in enumerate(inputs):
            st = resonator_factorize(v, books357, ResonatorConfig(max_iters=30, seed=t))
            claim = np.prod([cb.matrix[i] for cb, i in zip(books357, st.labels)], axis=0)
            cosine = np.real(np.vdot(claim, v)) / (np.linalg.norm(claim) * np.linalg.norm(v))
            assert st.claim_cosine == pytest.approx(cosine, abs=1e-12)
            assert st.converged == (st.claim_cosine >= VERIFY_THRESHOLD)

    def test_claim_cosine_bits_match_stacked_product(self, sys357, books357):
        # dense rows are views and modular rows are fresh arrays: the running
        # product must multiply in np.prod's order and leave the books unchanged
        rng = np.random.default_rng(5)
        dense = Codebook(np.exp(1j * rng.uniform(0, 2 * np.pi, (4, sys357.dim))))
        books = [dense] + list(books357)
        before = dense.matrix.copy()
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, sys357.dim))
        for labels in ([0, 0, 0, 0], [3, 2, 4, 6], [1, 1, 3, 5]):
            stacked = np.prod([cb.row(i) for cb, i in zip(books, labels)], axis=0)
            assert _claim_cosine(v, books, labels) == _cosine(stacked, v)
        assert np.array_equal(dense.matrix, before)

    def test_claim_cosine_separates_clean_from_random(self, sys357, books357):
        clean = resonator_factorize(sys357.encode(61), books357, ResonatorConfig(max_iters=30, seed=0))
        assert clean.converged and clean.claim_cosine >= VERIFY_THRESHOLD
        v = np.exp(1j * np.random.default_rng(8).uniform(0, 2 * np.pi, sys357.dim))
        noise = resonator_factorize(v, books357, ResonatorConfig(max_iters=30, max_restarts=2, seed=0))
        assert not noise.converged and noise.claim_cosine < VERIFY_THRESHOLD

    def test_random_inputs_never_converge(self):
        # the noise command's size and sweep budget; a random input settles
        # to a fixed point there, but its decoded product does not match it
        sys = make_residue_system([31, 37], 512, seed=0)
        books = build_residue_codebooks(sys)
        claimed = []
        for t in range(200):
            v = np.exp(1j * np.random.default_rng(t).uniform(0, 2 * np.pi, sys.dim))
            if resonator_factorize(v, books, ResonatorConfig(max_iters=100, seed=t)).converged:
                claimed.append(t)
        assert claimed == []

    def test_verify_cannot_be_switched_off(self):
        with pytest.raises(ValueError):
            ResonatorConfig(verify=False)
        cfg = ResonatorConfig(max_iters=7, verify=True)
        assert [f.name for f in fields(cfg)] == ["max_iters", "max_restarts", "seed"]
        assert replace(cfg, seed=3) == ResonatorConfig(max_iters=7, seed=3)
        with pytest.raises(ValueError):
            replace(cfg, verify=False)

    @pytest.mark.parametrize("field, value", [("max_iters", 2.5), ("max_iters", True), ("max_iters", "3"),
                                              ("max_restarts", 1.5), ("max_restarts", True)])
    def test_config_counts_must_be_integers(self, field, value):
        # max_iters=2.5 was once accepted and failed later inside the sweep
        with pytest.raises(ValueError, match="must be integers"):
            ResonatorConfig(**{field: value})
        cfg = ResonatorConfig(max_iters=np.int64(7), max_restarts=np.int32(2))
        assert (type(cfg.max_iters), type(cfg.max_restarts)) == (int, int)

    @pytest.mark.parametrize("seed", [1.5, "3", True])
    def test_config_seed_must_be_an_integer(self, seed):
        # these once failed only inside the first decode, and True meant 1
        with pytest.raises(ValueError, match="must be integers"):
            ResonatorConfig(seed=seed)

    def test_config_seed_must_not_be_negative(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ResonatorConfig(seed=-1)
        assert ResonatorConfig().seed is None
        cfg = ResonatorConfig(seed=np.uint32(2**32 - 1))
        assert cfg.seed == 2**32 - 1 and type(cfg.seed) is int

    def test_non_finite_input_rejected(self):
        sys = make_residue_system([3, 5], 64, seed=0)
        v = np.full(64, np.nan + 0j)
        with pytest.raises(ValueError):
            resonator_factorize(v, build_residue_codebooks(sys), ResonatorConfig(seed=0))

    def test_restart_budget_reporting(self, sys357, books357):
        rng = np.random.default_rng(5)
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, sys357.dim))
        st = resonator_factorize(v, books357, ResonatorConfig(max_iters=10, max_restarts=3, seed=6))
        assert st.restarts_used == 3


class TestDecodeResidueNumber:
    def test_exhaustive_round_trip(self, sys357, books357):
        for x in range(105):
            got, st = decode_residue_number(
                sys357, sys357.encode(x), ResonatorConfig(max_iters=30, seed=x), codebooks=books357
            )
            assert got == x

    def test_residues_of_20(self, sys357, books357):
        got, st = decode_residue_number(
            sys357, sys357.encode(20), ResonatorConfig(max_iters=30, seed=0), codebooks=books357
        )
        assert got == 20
        assert tuple(st.labels) == (2, 0, 6)

    def test_verified_decodes_are_right(self):
        # spurious fixed points reach alpha with wrong labels at this size;
        # verify must turn every one of them into a restart or a failure
        sys = make_residue_system([127, 131], 512, seed=7)
        books = build_residue_codebooks(sys)
        rng = np.random.default_rng(3)
        wrong = []
        for i in range(200):
            x = int(rng.integers(sys.range_M))
            cfg = ResonatorConfig(max_iters=30, max_restarts=3, seed=100 + i)
            got, st = decode_residue_number(sys, sys.encode(x), cfg, codebooks=books)
            if st.converged and got != x:
                wrong.append((x, 100 + i, got))
        assert wrong == []


class TestForeignCodebooks:
    """Codebooks passed in must be books of the decoded system's moduli."""

    @pytest.fixture(scope="class")
    def a_b(self):
        return make_residue_system([3, 5, 7], 256, seed=0), make_residue_system([7, 11, 13], 256, seed=1)

    def test_decode_residue_number_rejects(self, a_b):
        a, b = a_b
        with pytest.raises(ValueError, match="do not match moduli"):
            decode_residue_number(b, a.encode(20).to_dense(), ResonatorConfig(seed=1),
                                  codebooks=build_residue_codebooks(a))


class TestSubIntegerDecode:
    def test_integer_input_zero_offset(self, sys357, books357):
        value, _ = sub_integer_decode(sys357, sys357.encode(17), 4, ResonatorConfig(max_iters=30, seed=0))
        assert value == Fraction(17)

    def test_fractional_value_decodes_exactly(self):
        sys = make_residue_system([3, 5, 7], 512, seed=51)
        v = sys.encode_rational(40.4)
        value, _ = sub_integer_decode(sys, v, 5, ResonatorConfig(max_iters=30, seed=1))
        assert value == Fraction(202, 5)

    def test_half_offset_grid(self):
        # offsets at exactly half a unit are the per-modulus rounding tie case
        sys = make_residue_system([31, 37], 512, seed=52)
        for x in (100, 700):
            truth = Fraction(2 * x + 1, 2)
            v = sys.encode_rational(float(truth))
            value, _ = sub_integer_decode(sys, v, 2, ResonatorConfig(max_iters=40, seed=x))
            assert value == truth

    def test_partition_validation(self, sys357):
        with pytest.raises(ValueError):
            sub_integer_decode(sys357, sys357.encode(1), 0)

    def test_readme_example_converges(self):
        # the integer resonator's own check fails on a fractional input, so
        # converged once came back False with the right 202/5
        sys = make_residue_system([3, 5, 7], 1024, seed=0)
        value, state = sub_integer_decode(sys, sys.encode_rational(40.4), r=5)
        assert value == Fraction(202, 5)
        assert state.converged and state.claim_cosine >= 0.999

    def test_random_input_does_not_converge(self, sys357):
        v = PhasorVector.dense(np.exp(2j * np.pi * np.random.default_rng(53).random(sys357.dim)))
        _, state = sub_integer_decode(sys357, v, 5, ResonatorConfig(max_iters=30, seed=2))
        assert not state.converged and state.claim_cosine < VERIFY_THRESHOLD


class TestBitsPerVector:
    def test_perfect_accuracy(self):
        assert abs(bits_per_vector(1.0, 1024) - 10.0) < 1e-12

    def test_chance_is_zero(self):
        P = 64
        assert abs(bits_per_vector(1.0 / P, P)) < 1e-12

    def test_half_accuracy_two_states(self):
        assert abs(bits_per_vector(0.5, 2)) < 1e-12

    def test_monotone_above_chance(self):
        P = 100
        grid = np.linspace(1.0 / P + 1e-6, 1.0, 50)
        vals = [bits_per_vector(float(a), P) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            bits_per_vector(1.5, 10)
        with pytest.raises(ValueError):
            bits_per_vector(0.5, 1)


class TestNoiseRobustness:
    def test_decode_survives_moderate_noise(self):
        sys = make_residue_system([31, 37], 512, seed=53)
        books = build_residue_codebooks(sys)
        hits = 0
        for t in range(40):
            x = int(np.random.default_rng(t).integers(sys.range_M))
            v = add_phase_noise(sys.encode(x), NoiseModel(kappa=16.0, seed=t))
            got, _ = decode_residue_number(
                sys, v, ResonatorConfig(max_iters=50, seed=t), codebooks=books
            )
            hits += got == x
        assert hits / 40 >= 0.9


class TestSubintegerOverlay:
    def test_measured_tracks_prediction(self):
        from residuehd.resonator import subinteger_overlay

        sys = make_residue_system([11, 13], 1024, seed=55)
        q = 40.25
        rows = subinteger_overlay(sys, q, ResonatorConfig(max_iters=40, seed=0))
        assert len(rows) == 11 + 13
        for m in (11, 13):
            per_m = [(entry, measured, predicted) for mod, entry, measured, predicted in rows if mod == m]
            top_measured = max(per_m, key=lambda r: r[1])[0]
            by_predicted = sorted(per_m, key=lambda r: -r[2])
            assert top_measured in {by_predicted[0][0], by_predicted[1][0]}


class TestCapacityExperiment:
    def test_primes_helper(self):
        assert consecutive_primes(2, 5) == [2, 3, 5, 7, 11]
        assert consecutive_primes(90, 2) == [97, 101]

    def test_small_sweep_structure(self):
        res = capacity_experiment(D=128, K=2, trials=20, seed=7, growth=2.0, max_M=2000)
        assert isinstance(res, CapacityResult)
        assert len(res.points) >= 2
        assert all(len(p.moduli) == 2 for p in res.points)
        ms = [p.M for p in res.points]
        assert ms == sorted(ms)
        assert res.capacity >= ms[0]

    @pytest.mark.parametrize("K", [0, -1])
    def test_no_moduli_rejected(self, K):
        # K = 0 builds empty windows with M = 1, which the sweep would skip forever
        with pytest.raises(ValueError, match="K must be >= 1"):
            capacity_experiment(D=64, K=K, trials=1)

    def test_determinism(self):
        r1 = capacity_experiment(D=128, K=2, trials=10, seed=9, growth=2.0, max_M=500)
        r2 = capacity_experiment(D=128, K=2, trials=10, seed=9, growth=2.0, max_M=500)
        assert [(p.M, p.accuracy, p.mean_evaluations) for p in r1.points] == [
            (p.M, p.accuracy, p.mean_evaluations) for p in r2.points
        ]
