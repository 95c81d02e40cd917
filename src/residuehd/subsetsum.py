"""Subset-sum search over residue-encoded targets.

Each item S_k becomes a two-entry factor codebook {z(0), z(S_k)}, the
binary decision to leave the item out or add it in. A product of one
entry per factor encodes the sum of the included items, so a subset
summing to T is a factorization of z(T). Since z(0) is all ones, a
factor is stored as its item's encoding z(S_k) alone (an ItemBook),
and its resonator step is a sum, one dot product and a scaled copy
rather than two matrix products over two rows. The resonator searches
the 2^|S| configurations with O(D * |S|) memory; every candidate it returns
is verified by exact integer arithmetic before being reported, and
failed attempts restart from fresh random phases (success probabilities
compose across restarts like independent trials).

The residue system must satisfy M > sum(S) so sums cannot wrap. Moduli
default to a consecutive triple {m-1, m, m+1} with m even, which is
pairwise co-prime (odd m makes m-1 and m+1 share a factor of 2).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .phasor import PhasorVector, _count, _index, _unit_into
from .residue import ResidueSystem, _child_seeds, make_residue_system
from .resonator import ResonatorConfig, resonator_factorize

__all__ = [
    "ItemBook",
    "SubsetSumInstance",
    "SubsetSumResult",
    "consecutive_triple_moduli",
    "make_subsetsum_system",
    "generate_instance",
    "build_factors",
    "solve",
    "benchmark",
    "save_instance",
    "load_instance",
]


def _index_tuple(values, name: str, each: str | None = None) -> tuple[int, ...]:
    """values as a tuple of integers, each named each (default: name); a non-iterable raises ValueError."""
    try:
        it = iter(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of integers, got {values!r}") from None
    return tuple(_index(v, each or name) for v in it)


@dataclass(frozen=True)
class SubsetSumInstance:
    """A multiset of positive integers, a target, and (optionally) a planted subset."""

    items: tuple[int, ...]
    target: int
    ground_truth: tuple[int, ...] | None = None  # item indices
    seed: int | None = None

    def __post_init__(self):
        items = _index_tuple(self.items, "items", "item")
        target = _index(self.target, "target")
        gt = None if self.ground_truth is None else tuple(sorted(_index_tuple(self.ground_truth, "ground_truth")))
        seed = None if self.seed is None else _index(self.seed, "seed")
        for name, value in (("items", items), ("target", target), ("ground_truth", gt), ("seed", seed)):
            object.__setattr__(self, name, value)
        if any(s <= 0 for s in items):
            raise ValueError("items must be positive integers")
        if not 0 <= target <= sum(items):
            raise ValueError(f"target {target} outside [0, {sum(items)}]")
        if gt is not None:
            if len(set(gt)) != len(gt) or any(not 0 <= i < len(items) for i in gt):
                raise ValueError("ground truth must be distinct valid item indices")
            if sum(items[i] for i in gt) != target:
                raise ValueError("ground truth does not sum to the target")


@dataclass
class SubsetSumResult:
    success: bool
    subset: tuple[int, ...] | None  # item indices, verified to sum to the target
    restarts_used: int
    evaluations: int

    @property
    def attempts(self) -> int:
        return self.restarts_used + 1

    @property
    def attempt_successes(self) -> tuple[bool, ...]:
        """Per-attempt verified outcome: only the last attempt can succeed."""
        return (False,) * self.restarts_used + (self.success,)


def consecutive_triple_moduli(m: int) -> tuple[int, int, int]:
    """{m-1, m, m+1} for the first even m >= max(m, 4).

    Odd m fails (m-1 and m+1 are both even); for even m, m-1 and m+1 are
    odd and differ by 2, so the triple is pairwise co-prime. m must be an
    integer; a float, string or bool raises an error that is both a TypeError and a ValueError
    rather than being truncated.
    """
    m = max(_index(m, "m"), 4)
    m += m % 2
    return (m - 1, m, m + 1)


def make_subsetsum_system(m: int, D: int, seed: int) -> ResidueSystem:
    return make_residue_system(consecutive_triple_moduli(m), D, seed)


def save_instance(instance: SubsetSumInstance, path) -> None:
    Path(path).write_text(json.dumps(asdict(instance)), encoding="ascii")


def load_instance(path) -> SubsetSumInstance:
    """Read an instance file; a malformed file raises ValueError.

    Checks the JSON shape (an `items` list, a `target`, a list or null
    `ground_truth`); SubsetSumInstance checks the values, so a float is rejected.
    """
    doc = json.loads(Path(path).read_text(encoding="ascii"))
    if not (isinstance(doc, dict) and isinstance(doc.get("items"), list) and "target" in doc
            and isinstance(doc.get("ground_truth"), (list, type(None)))):
        raise ValueError("instance file needs an 'items' list, a 'target' and a list or null 'ground_truth'")
    return SubsetSumInstance(tuple(doc["items"]), doc["target"], doc.get("ground_truth"), doc.get("seed"))


def generate_instance(n: int, sys: ResidueSystem, seed: int) -> SubsetSumInstance:
    """Random instance with a planted subset; item sizes scale to a max sum of M/2.

    Items are uniform on [1, M/(2n)] so any subset stays well inside the
    representable range [0, M). Raises ValueError, before any draw, unless
    n is an integer >= 1.
    """
    n = _count(n, "set size")
    M = sys.range_M
    item_max = (M // 2) // n
    if item_max < 1:
        raise ValueError(f"range M={M} too small for {n} items")
    rng = np.random.default_rng(seed)
    items = tuple(int(v) for v in rng.integers(1, item_max + 1, size=n))
    include = rng.integers(0, 2, size=n).astype(bool)
    subset = tuple(int(i) for i in np.flatnonzero(include))
    target = sum(items[i] for i in subset)
    return SubsetSumInstance(items=items, target=target, ground_truth=subset, seed=int(seed))


class ItemBook:
    """One item's two-entry factor: row 0 is z(0), leave the item out; row 1 is z(s), add it in.

    z(0) is all ones, so only z(s) is stored, as a read-only view of the
    encoding it is given (no copy). The inner products conj(Z) @ x are
    the sum of x and <z(s), x>, and the cleanup c @ Z is c[0] + c[1] z(s),
    so a step costs one sum, one dot product and a scaled copy, O(D). A
    step's summary is the two coefficients, as for a Codebook.
    """

    __slots__ = ("encoding",)
    n_entries = 2

    def __init__(self, encoding: np.ndarray):
        z = np.asarray(encoding, dtype=np.complex128).view()
        if z.ndim != 1 or z.size == 0:
            raise ValueError(f"item encoding must be a non-empty 1-D array, got shape {z.shape}")
        z.setflags(write=False)
        self.encoding = z

    @property
    def dim(self) -> int:
        return self.encoding.shape[0]

    def coefficients(self, c: np.ndarray) -> np.ndarray:
        """The inner products read from a step's summary, which here are the summary."""
        return c

    def project(self, x: np.ndarray) -> np.ndarray:
        """conj(Z) @ x: (sum of x, <z(s), x>)."""
        return np.array([x.sum(), np.vdot(self.encoding, x)])

    def step(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the unit estimate g(c[0] + c[1] z(s)) into out; return c = conj(Z) @ x."""
        c = self.project(x)
        # scalar first, as in c[1] * z: with the operands swapped numpy can
        # round the imaginary parts differently in the last bit
        np.multiply(c[1], self.encoding, out=out)
        out += c[0]
        _unit_into(out, out)
        return c

    def row(self, i: int) -> np.ndarray:
        """Entry i: z(0), all ones (the bits of sys.encode(0)), or z(s); any other i raises IndexError."""
        i = _index(i, "i")
        if i == 0:
            return np.ones(self.dim, dtype=np.complex128)
        if i == 1:
            return self.encoding
        raise IndexError(f"an item book has entries 0 and 1, not {i}")


def build_factors(S: Sequence[int], sys: ResidueSystem) -> list[ItemBook]:
    """One two-entry book per item, stored as its row 1, z(S_k).

    Every item's z(S_k) is sys.encode(S_k), bit for bit, built in one exact
    vector from the indices of sys.composed_base. Every item must be an
    integer; a float, string or bool raises an error that is both a TypeError and a ValueError.
    """
    base = sys.composed_base
    M = base.modulus
    s = np.array([_index(x, "item") % M for x in S], dtype=np.int64)
    rows = PhasorVector.exact(base.phase_indices * s[:, None], M).values
    return [ItemBook(r) for r in rows]


def solve(
    instance: SubsetSumInstance,
    sys: ResidueSystem,
    config: ResonatorConfig | None = None,
) -> SubsetSumResult:
    """Search for any subset summing to the target; never returns unverified output.

    One verifying resonator run of up to 1 + max_restarts attempts,
    each from fresh random phases: an attempt is accepted when the
    product of its chosen entries reproduces z(target). The accepted
    subset is then checked to sum to the target in exact integer
    arithmetic before success is reported.
    """
    if sum(instance.items) >= sys.range_M:
        raise ValueError("instance violates M > sum(S)")
    config = config or ResonatorConfig(max_iters=30, max_restarts=19)
    books = build_factors(instance.items, sys)
    state = resonator_factorize(sys.encode(instance.target), books, config)
    subset = tuple(int(i) for i in np.flatnonzero(state.labels))
    success = state.converged and sum(instance.items[i] for i in subset) == instance.target
    return SubsetSumResult(
        success=success,
        subset=subset if success else None,
        restarts_used=state.restarts_used,
        evaluations=state.codebook_evaluations,
    )


def benchmark(
    sizes: Sequence[int],
    D_values: Sequence[int],
    m: int = 200,
    trials: int = 50,
    seed: int = 0,
    config: ResonatorConfig | None = None,
) -> dict:
    """Accuracy and evaluation counts per (set size, dimension) cell.

    Returns {"summary": [...], "results": [...]}. Summaries report
    first-attempt success p, success within the restart budget, the
    per-attempt success curve, accuracy-normalized evaluations, mean
    wall-clock time (hardware-dependent, informational only), and the
    brute-force comparison count 2^|S| expressed in resonator-sweep
    units (each sweep costs 2|S| inner products). Result rows carry one
    solved/failed record per instance. Raises ValueError, before any
    work, unless trials is an integer >= 1.
    """
    trials = _count(trials, "trials")
    summary = []
    result_rows = []
    base_cfg = config or ResonatorConfig(max_iters=30, max_restarts=19)
    for D in D_values:
        for n in sizes:
            sys = make_subsetsum_system(m, D, _child_seeds(seed, (D, n, 0))[0])
            results = []
            seconds = []
            for t in range(trials):
                inst_seed = _child_seeds(seed, (D, n, 1, t))[0]
                inst = generate_instance(n, sys, inst_seed)
                t0 = time.perf_counter()
                res = solve(inst, sys, replace(base_cfg, seed=inst_seed))
                seconds.append(time.perf_counter() - t0)
                results.append(res)
                result_rows.append(
                    {"n": int(n), "D": int(D), "instance_seed": inst_seed, "target": inst.target, **asdict(res)}
                )
            # solved within t attempts: the one success came at attempt t or earlier
            curve = [
                float(np.mean([r.success and r.attempts <= t for r in results]))
                for t in range(1, max(r.attempts for r in results) + 1)
            ]
            solved = curve[-1]  # by the last attempt any instance used, every success has come
            mean_evals = float(np.mean([r.evaluations for r in results]))
            summary.append(
                {
                    "n": int(n),
                    "D": int(D),
                    "moduli": list(sys.moduli),
                    "M": sys.range_M,
                    "trials": int(trials),
                    "first_attempt_success": curve[0],
                    "success_within_budget": solved,
                    "success_by_attempt": curve,
                    "mean_evaluations": mean_evals,
                    "evals_per_success": mean_evals / solved if solved > 0 else float("inf"),
                    "brute_force_sweep_equivalents": (2**int(n)) / (2 * int(n)),
                    "restart_budget": 1 + base_cfg.max_restarts,
                    "mean_solve_seconds": float(np.mean(seconds)),
                }
            )
    return {"summary": summary, "results": result_rows}
