"""The four benchmark workloads: fixed operation lists made from a seed.

Each workload's ``build(seed, n_ops)`` makes everything the timed loop
needs (systems, codebooks, inputs, warm lazy caches) and returns a list of
operations. An operation calls the public residuehd API on pre-generated
inputs and returns ``(correct, counts)``: whether the answer equals the
exact ground truth, and the work counts the library reported, which must
repeat exactly every time the operation runs.

Library functions are looked up on their module at call time, so the
tracer's wrappers are seen when it is installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import residuehd as rhd
from residuehd import scene, subsetsum


def _seeds(seed: int, key: tuple, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed, spawn_key=key).generate_state(n)]


def _state_counts(state) -> dict:
    return {
        "sweeps": state.iteration,
        "evaluations": state.codebook_evaluations,
        "attempts": state.restarts_used + 1,
    }


# --- roundtrip: capacity-sweep windows plus exact ring arithmetic ---------

ROUNDTRIP_D = 1024
# The top window needs a restart on about one decode in three. In the next
# windows up, the most attempts seen in 1000 decodes came close to the 16
# allowed, so some seed would leave a decode unsolved.
ROUNDTRIP_WINDOWS = [
    (7, 11, 13), (11, 13, 17), (13, 17, 19), (17, 19, 23), (19, 23, 29), (23, 29, 31),
]
ROUNDTRIP_RESTARTS = 15


def build_roundtrip(seed: int, n_ops: int) -> list[Callable]:
    sys_seeds = _seeds(seed, (0,), len(ROUNDTRIP_WINDOWS))
    systems = [
        rhd.make_residue_system(w, ROUNDTRIP_D, s, nonzero_only=True)
        for w, s in zip(ROUNDTRIP_WINDOWS, sys_seeds)
    ]
    books = [rhd.build_residue_codebooks(s) for s in systems]
    rng = np.random.default_rng(_seeds(seed, (1,), 1)[0])
    res_seeds = _seeds(seed, (2,), n_ops)
    ops = []
    for i in range(n_ops):
        w = i % len(systems)
        sys, M = systems[w], systems[w].range_M
        x1, x2, x3 = (int(v) for v in rng.integers(M, size=3))
        config = rhd.ResonatorConfig(
            max_iters=30, max_restarts=ROUNDTRIP_RESTARTS, verify=True, seed=res_seeds[i]
        )

        def op(sys=sys, cb=books[w], x1=x1, x2=x2, x3=x3, config=config, want=(x1 * x2 + x3) % M):
            prod = rhd.multiply(sys, sys.encode_factors(x1), sys.encode_factors(x2))
            v = rhd.add(sys, prod, sys.encode(x3)).to_dense()
            got, state = rhd.decode_residue_number(sys, v, config, codebooks=cb)
            return state.converged and got == want, _state_counts(state)

        ops.append(op)
    return ops


# --- large_modulus: memory-bound decode over a 131 MB dense codebook ------

# 1002 rows x 8192 x 16 B = 131 MB. At (997, 1009) and D=4096 (the same
# bytes) about one decode in five passes verify with a wrong integer.
LARGE_MODULI = (499, 503)
LARGE_D = 8192


def build_large_modulus(seed: int, n_ops: int) -> list[Callable]:
    sys = rhd.make_residue_system(LARGE_MODULI, LARGE_D, _seeds(seed, (0,), 1)[0])
    books = rhd.build_residue_codebooks(sys)
    rng = np.random.default_rng(_seeds(seed, (1,), 1)[0])
    res_seeds = _seeds(seed, (2,), n_ops)
    ops = []
    for i in range(n_ops):
        x = int(rng.integers(sys.range_M))
        v = sys.encode(x).to_dense()
        config = rhd.ResonatorConfig(max_iters=30, max_restarts=3, verify=True, seed=res_seeds[i])

        def op(v=v, x=x, config=config):
            got, state = rhd.decode_residue_number(sys, v, config, codebooks=books)
            return state.converged and got == x, _state_counts(state)

        ops.append(op)
    return ops


# --- subset_sum: twelve two-entry factors, Las Vegas restarts -------------

SUBSET_N = 12
SUBSET_D = 2048
SUBSET_M = 200
SUBSET_RESTARTS = 99  # the most attempts seen in 1000 instances was 25


def build_subset_sum(seed: int, n_ops: int) -> list[Callable]:
    sys = subsetsum.make_subsetsum_system(SUBSET_M, SUBSET_D, _seeds(seed, (0,), 1)[0])
    inst_seeds = _seeds(seed, (1,), n_ops)
    res_seeds = _seeds(seed, (2,), n_ops)
    ops = []
    for i in range(n_ops):
        inst = subsetsum.generate_instance(SUBSET_N, sys, inst_seeds[i])
        config = rhd.ResonatorConfig(max_iters=30, max_restarts=SUBSET_RESTARTS, seed=res_seeds[i])

        def op(inst=inst, config=config):
            res = subsetsum.solve(inst, sys, config)
            ok = res.success and sum(inst.items[k] for k in res.subset) == inst.target
            return ok, {"evaluations": res.evaluations, "attempts": res.attempts}

        ops.append(op)
    return ops


# --- scene: superposed scene vectors, residue and standard layouts --------

SCENE_D = 10000
SCENE_MODULI = (3, 5, 7)
SCENE_GRID = (105, 105)
SCENE_OBJECTS = 10
SCENE_FEATURES = 8
SCENE_MODES = ("residue", "standard")
SCENE_RESTARTS = 99  # residue layout: the most attempts seen in 400 scenes was 26


def build_scene(seed: int, n_ops: int) -> list[Callable]:
    s_h, s_v, s_codec, s_obj, s_place = _seeds(seed, (0,), 5)
    hsys = rhd.make_residue_system(SCENE_MODULI, SCENE_D, s_h)
    vsys = rhd.make_residue_system(SCENE_MODULI, SCENE_D, s_v)
    codec = scene.SceneCodec(hsys, vsys, SCENE_FEATURES, s_codec)
    objects = scene.make_synthetic_objects(SCENE_OBJECTS, SCENE_FEATURES, SCENE_GRID, seed=s_obj)
    object_book = codec.build_object_codebook(objects)  # also fills the position cache
    rng = np.random.default_rng(s_place)
    res_seeds = _seeds(seed, (1,), n_ops)
    ops = []
    for i in range(n_ops):
        k = int(rng.integers(SCENE_OBJECTS))
        dx, dy = int(rng.integers(SCENE_GRID[1])), int(rng.integers(SCENE_GRID[0]))
        maps = scene.translate_maps(objects[k], dx, dy)
        config = rhd.ResonatorConfig(max_iters=15, max_restarts=SCENE_RESTARTS, verify=True, seed=res_seeds[i])

        def op(maps=maps, mode=SCENE_MODES[i % 2], config=config, want=(k, dx, dy)):
            dec = codec.factorize_scene(codec.encode_scene(maps), object_book, mode, config)
            ok = dec.converged and (dec.object_id, dec.x, dec.y) == want
            return ok, {"evaluations": dec.evaluations, "attempts": dec.restarts_used + 1}

        ops.append(op)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, int], list]
    n_ops: int  # operations per round at full size
    tiny_ops: int  # operations per round for the smoke test
    tail_percentile: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("roundtrip", build_roundtrip, n_ops=900, tiny_ops=6, tail_percentile=99),
        Workload("large_modulus", build_large_modulus, n_ops=24, tiny_ops=2, tail_percentile=85),
        Workload("subset_sum", build_subset_sum, n_ops=520, tiny_ops=3, tail_percentile=90),
        Workload("scene", build_scene, n_ops=300, tiny_ops=4, tail_percentile=90),
    )
}
