"""Subset-sum search: instances, factor codebooks, solver, baselines."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from reference import brute_force_baseline, exact_baseline
from residuehd import scene, subsetsum
from residuehd.phasor import phase_normalize
from residuehd.resonator import Codebook, ResonatorConfig
from residuehd.subsetsum import (
    ItemBook,
    SubsetSumInstance,
    benchmark,
    build_factors,
    consecutive_triple_moduli,
    generate_instance,
    load_instance,
    make_subsetsum_system,
    save_instance,
    solve,
)


@pytest.fixture(scope="module")
def sys200():
    return make_subsetsum_system(200, 1024, seed=60)


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            SubsetSumInstance(items=(3, -1), target=2)
        with pytest.raises(ValueError):
            SubsetSumInstance(items=(3, 4), target=8)
        with pytest.raises(ValueError):
            SubsetSumInstance(items=(3, 4), target=5, ground_truth=(0,))

    @pytest.mark.parametrize("fields", [
        dict(items=(True, 2), target=3),
        dict(items=(1, 2), target=True),
        dict(items=(1, 2), target=3, ground_truth=(False, True)),
        dict(items=(1, 2), target=3, seed=True),
    ], ids=["items", "target", "ground_truth", "seed"])
    def test_bool_rejected(self, fields):
        # a bool was once read as 1 or 0
        with pytest.raises(ValueError, match="must be an integer, got (True|False)$"):
            SubsetSumInstance(**fields)

    @pytest.mark.parametrize("fields, name", [
        (dict(items=5, target=1), "items"),
        (dict(items=(1, 2), target=1, ground_truth=3), "ground_truth"),
    ], ids=["items", "ground_truth"])
    def test_non_sequence_named(self, fields, name):
        # a bare TypeError "'int' object is not iterable" once
        with pytest.raises(ValueError, match=f"^{name} must be a sequence of integers, got {fields[name]}$"):
            SubsetSumInstance(**fields)

    def test_ground_truth_accepted(self):
        inst = SubsetSumInstance(items=(3, 4, 5), target=8, ground_truth=(0, 2))
        assert inst.ground_truth == (0, 2)


class TestModuliChoice:
    def test_even_anchor_kept(self):
        assert consecutive_triple_moduli(200) == (199, 200, 201)

    def test_odd_anchor_bumped(self):
        triple = consecutive_triple_moduli(199)
        assert triple == (199, 200, 201)
        for i in range(3):
            for j in range(i + 1, 3):
                assert math.gcd(triple[i], triple[j]) == 1

    @pytest.mark.parametrize("m", [200.7, "200", True])
    def test_non_integer_anchor_raises(self, m):
        with pytest.raises(TypeError):
            consecutive_triple_moduli(m)

    def test_numpy_integer_anchor(self):
        assert consecutive_triple_moduli(np.int32(199)) == (199, 200, 201)

    def test_all_returned_triples_coprime(self):
        def searched(m):
            # reference: the first m >= max(m, 4) whose triple is pairwise co-prime
            m = max(m, 4)
            while math.gcd(m - 1, m) != 1 or math.gcd(m, m + 1) != 1 or math.gcd(m - 1, m + 1) != 1:
                m += 1
            return (m - 1, m, m + 1)

        for m in range(-5, 3001):
            a, b, c = consecutive_triple_moduli(m)
            assert math.gcd(a, b) == math.gcd(b, c) == math.gcd(a, c) == 1
            assert (a, b, c) == searched(m)


class TestGenerate:
    def test_sum_bounded_by_half_range(self, sys200):
        for seed in range(10):
            inst = generate_instance(6, sys200, seed=seed)
            assert sum(inst.items) <= sys200.range_M / 2
            assert sum(inst.items[i] for i in inst.ground_truth) == inst.target

    def test_deterministic(self, sys200):
        a = generate_instance(8, sys200, seed=5)
        b = generate_instance(8, sys200, seed=5)
        assert a.items == b.items and a.target == b.target

    def test_too_many_items_rejected(self):
        tiny = make_subsetsum_system(4, 16, seed=0)  # M = 60
        with pytest.raises(ValueError):
            generate_instance(50, tiny, seed=0)


class TestFactors:
    def test_structure(self, sys200):
        S = (18, 4, 5, 10, 2, 23)
        books = build_factors(S, sys200)
        assert len(books) == 6
        assert sum(cb.n_entries for cb in books) == 12
        for cb, s in zip(books, S):
            assert cb.n_entries == 2
            assert np.allclose(cb.row(0), sys200.encode(0).values)
            assert np.allclose(cb.row(1), sys200.encode(s).values)

    def test_memory_footprint_linear(self, sys200):
        # z(0) is all ones and not stored: one D-vector per item
        books = build_factors(tuple(range(1, 9)), sys200)
        total = sum(cb.encoding.size for cb in books)
        assert total == 8 * sys200.dim

    def test_selected_product_encodes_sum(self, sys200):
        from residuehd.phasor import hadamard

        S = (18, 4, 5, 10, 2, 23)
        books = build_factors(S, sys200)
        chosen = (1, 3, 5)
        v = None
        for k in range(len(S)):
            entry = sys200.encode(S[k]) if k in chosen else sys200.encode(0)
            v = entry if v is None else hadamard(v, entry)
        assert v == sys200.encode(sum(S[k] for k in chosen))

    @settings(max_examples=30, deadline=None)
    @given(items=strategies.lists(strategies.integers(1, 10**6), min_size=1, max_size=12),
           D=strategies.integers(1, 256), seed=strategies.integers(0, 2**16))
    def test_rows_are_bit_equal_to_encodings(self, items, D, seed):
        sys = make_subsetsum_system(200, D, seed)
        books = build_factors(items, sys)
        assert len(books) == len(items)
        for s, book in zip(items, books):
            assert book.row(0).tobytes() == sys.encode(0).values.tobytes()
            assert book.row(1).tobytes() == sys.encode(s).values.tobytes()


class TestItemBook:
    @settings(max_examples=60, deadline=None)
    @given(D=strategies.integers(1, 2048), item=strategies.integers(1, 10**6),
           kind=strategies.sampled_from(["real", "complex", "strided"]), seed=strategies.integers(0, 2**16))
    def test_step_equals_dense(self, D, item, kind, seed):
        # the one-row step against the matrix products on the two dense rows
        sys = make_subsetsum_system(200, D, seed)
        (book,) = build_factors([item], sys)
        assert (book.n_entries, book.dim) == (2, D)
        rng = np.random.default_rng(seed)
        if kind == "real":
            x = rng.normal(size=D)
        else:
            z = rng.normal(size=2 * D) + 1j * rng.normal(size=2 * D)
            x = z[:D] if kind == "complex" else z[::2]
        dense = Codebook(np.stack([book.row(0), book.row(1)]))
        want_est = np.empty(D, dtype=np.complex128)
        want_c = dense.coefficients(dense.step(x, want_est))
        cleaned = want_c @ dense.matrix

        def rel_err(got, want):
            return np.linalg.norm(got - want) / np.linalg.norm(want)

        est = np.empty(D, dtype=np.complex128)
        c = book.coefficients(book.step(x, est))
        assert rel_err(c, want_c) <= 1e-12
        assert rel_err(book.project(x), want_c) <= 1e-12
        assert est.tobytes() == phase_normalize(c[1] * book.encoding + c[0]).values.tobytes()
        assert np.allclose(np.abs(est), 1.0, atol=1e-15)
        # each phase weighted by its magnitude: a component that cleans up to
        # nearly zero has an ill-conditioned phase in both computations
        assert rel_err(est * np.abs(cleaned), cleaned) <= 1e-12

    def test_encoding_read_only_and_two_rows(self, sys200):
        (book,) = build_factors([7], sys200)
        assert not book.encoding.flags.writeable
        with pytest.raises(ValueError):
            book.encoding[0] = 0
        assert book.row(1) is book.encoding
        for i in (2, -1):
            with pytest.raises(IndexError):
                book.row(i)

    @pytest.mark.parametrize("shape", [(0,), (2, 4), ()])
    def test_encoding_must_be_a_vector(self, shape):
        with pytest.raises(ValueError, match="1-D"):
            ItemBook(np.ones(shape, dtype=np.complex128))


# each count, called with the count under test and the rest valid
COUNT_CALLS = {
    "generate_instance-n": lambda sys, n: generate_instance(n, sys, seed=0),
    "benchmark-trials": lambda sys, n: benchmark([2], [64], trials=n),
    "scene_experiment-n_scenes": lambda sys, n: scene.scene_experiment(n, 64),
}


class TestIntegerCounts:
    @pytest.mark.parametrize("count", [True, 2.0, 2.5, "2"])
    @pytest.mark.parametrize("call", list(COUNT_CALLS))
    def test_non_integer_count_rejected_before_any_work(self, monkeypatch, sys200, call, count):
        # a bool was read as 1, and a float built everything before range() refused it
        def no_work(*args, **kwargs):
            raise AssertionError("work began before the count was checked")

        monkeypatch.setattr(subsetsum, "make_residue_system", no_work)
        monkeypatch.setattr(scene, "make_residue_system", no_work)
        monkeypatch.setattr(np.random, "default_rng", no_work)  # generate_instance's draws
        with pytest.raises(ValueError, match="must be an integer"):
            COUNT_CALLS[call](sys200, count)


class TestSolve:
    def test_figure_instance(self, sys200):
        inst = SubsetSumInstance(items=(18, 4, 5, 10, 2, 23), target=21)
        res = solve(inst, sys200, ResonatorConfig(max_iters=30, max_restarts=19, seed=1))
        assert res.success
        assert sum(inst.items[i] for i in res.subset) == 21
        # brute force confirms (4, 5, 10, 2) is the unique solution
        assert brute_force_baseline(inst.items, 21) == (1, 2, 3, 4)
        assert res.subset == (1, 2, 3, 4)

    def test_zero_target_empty_subset(self, sys200):
        inst = SubsetSumInstance(items=(7, 11, 13), target=0)
        res = solve(inst, sys200, ResonatorConfig(max_iters=20, max_restarts=9, seed=2))
        assert res.success and res.subset == ()

    def test_full_sum_full_subset(self, sys200):
        items = (7, 11, 13)
        inst = SubsetSumInstance(items=items, target=31)
        res = solve(inst, sys200, ResonatorConfig(max_iters=20, max_restarts=9, seed=3))
        assert res.success and res.subset == (0, 1, 2)

    def test_unsolvable_instance_fails_loudly(self, sys200):
        inst = SubsetSumInstance(items=(2, 4), target=1)
        res = solve(inst, sys200, ResonatorConfig(max_iters=10, max_restarts=4, seed=4))
        assert not res.success
        assert res.subset is None
        assert res.attempts == 5
        assert len(res.attempt_successes) == 5

    def test_attempt_record_is_derived(self, sys200):
        res = solve(SubsetSumInstance(items=(7, 11, 13), target=31), sys200,
                    ResonatorConfig(max_iters=20, max_restarts=9, seed=3))
        assert res.success
        assert res.attempts == res.restarts_used + 1
        assert res.attempt_successes == (False,) * res.restarts_used + (True,)
        with pytest.raises(AttributeError):
            res.attempts = 1

    def test_soundness_every_success_verifies(self, sys200):
        for seed in range(15):
            inst = generate_instance(8, sys200, seed=100 + seed)
            res = solve(inst, sys200, ResonatorConfig(max_iters=30, max_restarts=9, seed=seed))
            if res.success:
                assert sum(inst.items[i] for i in res.subset) == inst.target

    def test_range_violation_rejected(self):
        tiny = make_subsetsum_system(4, 64, seed=0)  # M = 60
        inst = SubsetSumInstance(items=(30, 29, 28), target=59)
        with pytest.raises(ValueError):
            solve(inst, tiny)


class TestExactBaseline:
    def test_agrees_with_enumerator(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(1, 13))
            items = [int(v) for v in rng.integers(1, 60, size=n)]
            pick = rng.integers(0, 2, size=n).astype(bool)
            # half the trials query a planted target, half a random one
            target = int(sum(np.array(items)[pick])) if trial % 2 == 0 else int(rng.integers(0, sum(items) + 2))
            dp = exact_baseline(items, target)
            bf = brute_force_baseline(items, target)
            assert (dp is None) == (bf is None)
            if dp is not None:
                assert sum(items[i] for i in dp) == target

    def test_no_solution(self):
        assert exact_baseline([2, 4], 1) is None

    def test_figure_instance(self):
        sol = exact_baseline([18, 4, 5, 10, 2, 23], 21)
        assert sol is not None
        assert sum([18, 4, 5, 10, 2, 23][i] for i in sol) == 21

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_baseline([0, 3], 2)
        with pytest.raises(ValueError):
            brute_force_baseline(list(range(1, 30)), 5)

    @pytest.mark.parametrize("baseline", [exact_baseline, brute_force_baseline])
    @pytest.mark.parametrize("items, target", [([2, 3], 5.9), ([2, 3], "5"), ([2, 3], True),
                                               ([2.0, 3], 5), (["2", 3], 5), ([True, 3], 4)])
    def test_non_integers_raise(self, baseline, items, target):
        # int() would truncate 5.9 to 5 and claim (0, 1) sums to 5.9
        with pytest.raises(TypeError):
            baseline(items, target)

    @pytest.mark.parametrize("baseline", [exact_baseline, brute_force_baseline])
    def test_numpy_integers_accepted(self, baseline):
        assert baseline(np.array([2, 3, 4]), np.int64(7)) == (1, 2)


class TestInstanceFiles:
    def test_round_trip(self, tmp_path, sys200):
        inst = generate_instance(6, sys200, seed=42)
        path = tmp_path / "instance.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded.items == inst.items
        assert loaded.target == inst.target
        assert loaded.seed == inst.seed

    @given(data=strategies.data(), items=strategies.lists(strategies.integers(1, 10**12), min_size=1, max_size=16),
           planted=strategies.booleans(), seed=strategies.none() | strategies.integers(0, 2**63 - 1))
    def test_file_round_trip(self, tmp_path_factory, data, items, planted, seed):
        if planted:
            subset = data.draw(strategies.sets(strategies.integers(0, len(items) - 1)))
            inst = SubsetSumInstance(tuple(items), sum(items[i] for i in subset), tuple(subset), seed)
        else:
            inst = SubsetSumInstance(tuple(items), data.draw(strategies.integers(0, sum(items))), seed=seed)
        path = tmp_path_factory.mktemp("instance") / "instance.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    @pytest.mark.parametrize("doc", [
        {"items": [1.7, 2.2], "target": 3},  # once truncated to (1, 2)
        {"items": [1, 2], "target": "3"},  # once accepted
        {"items": [1, 2], "target": 3, "seed": 1.5},  # once truncated to 1
        {"target": 3},  # once a KeyError
        [1, 2, 3],  # once a TypeError, as were the next two
        {"items": 5, "target": 3},
        {"items": [1, 2], "target": None},
        {"items": [1, 2], "target": 3, "ground_truth": [0.0, 1]},
        {"items": [1, 2], "target": 3, "ground_truth": 1},
    ])
    def test_malformed_file_rejected(self, tmp_path, doc):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_instance(path)

    @pytest.mark.parametrize("doc", [
        {"items": [True, 2], "target": 3},
        {"items": [1, 2], "target": True},
        {"items": [1, 2], "target": 3, "ground_truth": [False, True]},
        {"items": [1, 2], "target": 3, "seed": True},
    ], ids=["items", "target", "ground_truth", "seed"])
    def test_json_bool_rejected(self, tmp_path, doc):
        # JSON true and false were once loaded as 1 and 0
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_instance(path)


class TestBenchmark:
    def test_shapes_and_soundness(self):
        out = benchmark(
            sizes=[4],
            D_values=[512],
            m=30,
            trials=6,
            seed=0,
            config=ResonatorConfig(max_iters=20, max_restarts=9),
        )
        assert len(out["summary"]) == 1
        rec = out["summary"][0]
        assert rec["n"] == 4 and rec["D"] == 512
        assert 0.0 <= rec["first_attempt_success"] <= 1.0
        curve = rec["success_by_attempt"]
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        assert rec["mean_solve_seconds"] > 0
        assert len(out["results"]) == 6
        for row in out["results"]:
            if row["success"]:
                assert row["subset"] is not None

    def test_success_within_budget_is_share_solved(self):
        out = benchmark(
            sizes=[4],
            D_values=[512],
            m=30,
            trials=6,
            seed=0,
            config=ResonatorConfig(max_iters=20, max_restarts=9),
        )
        rec = out["summary"][0]
        share = sum(row["success"] for row in out["results"]) / len(out["results"])
        assert rec["success_within_budget"] == rec["success_by_attempt"][-1] == share
