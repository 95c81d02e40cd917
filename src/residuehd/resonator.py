"""Resonator-network factorization and decoding.

A vector composed as a Hadamard product of one codebook entry per
factor is pulled apart by iterating, one factor at a time,

    est_j <- g( Z_j Z_j^H ( v (.) prod_{i != j} conj(est_i) ) )

where Z_j stacks factor j's codebook entries and g projects every
component back onto the unit circle. The loop runs asynchronous sweeps
(each factor once per sweep) until the cosine similarity between
successive full states reaches the threshold ALPHA.

An attempt starts from K x D phases drawn uniformly from the 2^16-th
roots of unity, a gather from one 1 MiB table. It then forms the
unbound product P = v (.) prod_i conj(est_i) once, and step j unbinds
with P (.) est_j and divides the new est_j out of P again, so the
unbinding of a sweep costs O(K * D) rather than the O(K^2 * D) of
rebuilding every product of the other K-1 estimates.

Decoding a residue-encoded integer is factorization over the
per-modulus codebooks followed by Chinese-remainder reconstruction;
this costs sum(m_k) inner products per sweep instead of the prod(m_k)
of brute-force codebook decoding. Every residue codebook is its
ModulusBase, whose entries z(0) .. z(m-1) the base fixes. Its m inner
products with a residual x are the DFT of h = bincount(u, x, m), x
summed per phase index, and since that DFT is invertible the cleanup
(conj(Z) @ x) @ Z is the group sum m * h[u].

A step computes only what the next step reads: it writes the new
estimate into the state's row and returns a summary (h for a
ModulusBase, the coefficients for a Codebook) from which
coefficients() gives the m inner products. A sweep reads no label, so
resonator_factorize reads each factor's label from its last summary
once per attempt: a modular step costs O(D + m) time and O(D) memory in
place of the O(m * D) of dense matrix products, and the length-m DFT
runs once per factor per attempt. codebook_evaluations still counts m
inner products per step, the paper's unit of cost, not the DFTs run.

Also here: sub-integer decoding (the resonator's fixed points retain
fractional phase information even though codebooks hold only integer
encodings), the bits-per-vector information score, and the capacity /
noise sweep used to map how far a given dimension can be pushed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .kernels import analytic_kernel
from .phasor import ModulusBase, NoiseModel, PhasorVector, _index, _unit_into, add_phase_noise
from .residue import ResidueSystem, _child_seeds, _is_prime, crt_reconstruct, make_residue_system

__all__ = [
    "Codebook",
    "ResonatorConfig",
    "ResonatorState",
    "build_residue_codebooks",
    "codebook_decode",
    "resonator_step",
    "resonator_factorize",
    "decode_residue_number",
    "sub_integer_decode",
    "bits_per_vector",
    "decode_accuracy",
    "capacity_experiment",
    "subinteger_experiment",
    "subinteger_overlay",
    "CapacityPoint",
    "CapacityResult",
    "consecutive_primes",
]


class Codebook:
    """Reference encodings stacked as matrix rows; entry i is row i.

    A step's summary is the coefficients conj(Z) @ x themselves, so a
    step costs the O(m * D) of two matrix products.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2:
            raise ValueError("codebook matrix must be 2-D (entries, dim)")
        if 0 in matrix.shape:
            raise ValueError(f"codebook needs at least one entry and dim >= 1, got shape {matrix.shape}")
        self.matrix = matrix  # (entries, dim) complex rows

    @classmethod
    def from_vectors(cls, vectors: Sequence[PhasorVector]) -> "Codebook":
        return cls(np.stack([v.values for v in vectors]))

    @property
    def n_entries(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def coefficients(self, c: np.ndarray) -> np.ndarray:
        """The inner products read from a step's summary, which here are the summary."""
        return c

    def project(self, x: np.ndarray) -> np.ndarray:
        """conj(Z) @ x: the inner product of every entry with x.

        Conjugating the D-vector and the m results instead of the m x D
        matrix gives the same bits with no conjugate copy of the matrix.
        """
        return (self.matrix @ x.conj()).conj()

    def step(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the unit estimate g(c @ Z) into out; return c = conj(Z) @ x."""
        c = self.project(x)
        _unit_into(np.matmul(c, self.matrix, out=out), out)
        return c

    def row(self, i: int) -> np.ndarray:
        """Entry i."""
        return self.matrix[i]

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n_entries}, D={self.dim})"


# successive-state similarity at which an attempt's sweeps stop
ALPHA = 0.95

# cosine between the input and the product of the claimed codebook entries
# that accepts an attempt; a right claim on a clean input scores 1.0, a
# wrong one about 1/sqrt(D)
VERIFY_THRESHOLD = 0.5


@dataclass
class ResonatorConfig:
    """Knobs for the factorization loop.

    An attempt's sweeps end early once the successive-state similarity
    reaches ALPHA. An attempt is accepted when the Hadamard product of
    the codebook entries it decoded has cosine at least VERIFY_THRESHOLD
    with the input; otherwise the loop restarts from fresh random
    phases, up to max_restarts times. Both counts, and the seed unless
    it is None, must be integers (a float or bool raises ValueError),
    and none may be negative. `verify` is accepted for old callers only
    and must be True.
    """

    max_iters: int = 50
    max_restarts: int = 0
    seed: int | None = None
    verify: InitVar[bool] = True

    def __post_init__(self, verify):
        if not verify:
            raise ValueError("every resonator run verifies its answer; verify=False is not supported")
        try:
            self.max_iters, self.max_restarts = _index(self.max_iters), _index(self.max_restarts)
            if self.seed is not None:
                self.seed = _index(self.seed)
        except TypeError as exc:
            raise ValueError(f"max_iters, max_restarts and seed must be integers: {exc}") from None
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ResonatorState:
    """Per-factor estimates plus convergence and cost bookkeeping.

    labels holds the decoded entry of each factor as its codebook row
    index, read after every step by resonator_step and after an
    attempt's last sweep by resonator_factorize. converged is True when
    an attempt's decoded labels reproduce the input, so they are the
    answer for any input that is a clean product of codebook entries.
    claim_cosine is that check's score for the returned attempt: the
    cosine between the input and the product of its decoded entries.
    """

    estimates: np.ndarray  # (K, D) complex, unit magnitude
    iteration: int = 0  # completed sweeps (cumulative across restarts)
    converged: bool = False
    codebook_evaluations: int = 0
    restarts_used: int = 0
    claim_cosine: float = 0.0
    labels: np.ndarray = field(init=False)  # (K,) decoded row per factor

    def __post_init__(self):
        self.labels = np.zeros(self.estimates.shape[0], dtype=np.int64)


def build_residue_codebooks(sys: ResidueSystem) -> list[ModulusBase]:
    """One codebook per modulus, which is its base: row r is z_m(r)."""
    return list(sys.bases)


def codebook_decode(v, codebook: Codebook) -> int:
    """Row of the entry with the largest real inner product with v.

    Ties go to the lowest row. Raises ValueError when v or a score is not
    finite, since argmax would pick row 0 for a NaN.
    """
    vals = v.values if isinstance(v, PhasorVector) else np.asarray(v)
    if vals.shape[0] != codebook.dim:
        raise ValueError(f"dimension mismatch: {vals.shape[0]} vs {codebook.dim}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("input has non-finite components")
    scores = codebook.project(vals).real
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite scores: the input overflows the inner products")
    return int(np.argmax(scores))


def _unbind(v_vals, estimates: np.ndarray, j: int) -> np.ndarray:
    """Factor j's residual: v (.) prod_{i != j} conj(est_i)."""
    residual = v_vals.copy()
    for i in range(estimates.shape[0]):
        if i != j:
            residual *= estimates[i].conj()
    return residual


def _apply_step(state: ResonatorState, codebooks, j: int, residual: np.ndarray) -> np.ndarray:
    """Write the cleanup of factor j's residual into its estimate; return the step's summary."""
    summary = codebooks[j].step(residual, state.estimates[j])
    state.codebook_evaluations += codebooks[j].n_entries
    return summary


def _label(book, summary: np.ndarray) -> int:
    """The entry a step's summary decodes to."""
    # factor estimates settle only up to a global phase per factor (the
    # rotations cancel in the composed product), so the per-factor label
    # uses the gauge-invariant coefficient magnitude
    return int(np.argmax(np.abs(book.coefficients(summary))))


def resonator_step(v, state: ResonatorState, codebooks: Sequence[Codebook], j: int) -> ResonatorState:
    """Update factor j in place from the input and the other estimates."""
    vals = v.values if isinstance(v, PhasorVector) else np.asarray(v)
    if vals.shape[0] != state.estimates.shape[1]:
        raise ValueError("input dimension does not match state")
    if not 0 <= j < state.estimates.shape[0]:
        raise ValueError(f"factor index {j} out of range")
    summary = _apply_step(state, codebooks, j, _unbind(vals, state.estimates, j))
    state.labels[j] = _label(codebooks[j], summary)
    return state


# the 2^16-th roots of unity (1 MiB): an initial phase is one of them, drawn
# uniformly, which is a table lookup instead of a complex exp per component
_INIT_PERIOD = 2**16
_INIT_ROOTS = PhasorVector.exact(np.arange(_INIT_PERIOD), _INIT_PERIOD).values


def _random_init(codebooks, rng, out=None) -> np.ndarray:
    """K x D initial estimates, written into out when it is given."""
    shape = (len(codebooks), codebooks[0].dim)
    # uint16 indices are in range, so mode="wrap" never wraps them; unlike
    # mode="raise" it writes into out directly, not through a temporary
    return _INIT_ROOTS.take(rng.integers(_INIT_PERIOD, size=shape, dtype=np.uint16), out=out, mode="wrap")


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.real(np.vdot(a, b)) / (na * nb))


def _claim_cosine(v_vals: np.ndarray, codebooks, labels) -> float:
    """Cosine between the input and the product of the decoded entries."""
    # a running product, in np.prod's order, instead of stacking K rows
    product = np.array(codebooks[0].row(labels[0]))
    for cb, i in zip(codebooks[1:], labels[1:]):
        product *= cb.row(i)
    return _cosine(product, v_vals)


def resonator_factorize(v, codebooks: Sequence[Codebook], config: ResonatorConfig | None = None) -> ResonatorState:
    """Run asynchronous sweeps until the state settles, restarting on demand.

    Returns a state whose `converged` flag reports whether an attempt
    was accepted (see ResonatorConfig for the rule). A failed run still
    carries the labels and estimates of the attempt whose decoded
    product came closest to the input, with converged False, never a
    silent wrong claim.
    """
    config = config or ResonatorConfig()
    codebooks = list(codebooks)
    if not codebooks:
        raise ValueError("need at least one codebook")
    K = len(codebooks)
    D = codebooks[0].dim
    if any(cb.dim != D for cb in codebooks):
        raise ValueError("codebooks disagree on dimension")
    v_vals = v.values if isinstance(v, PhasorVector) else np.asarray(v, dtype=np.complex128)
    if v_vals.shape[0] != D:
        raise ValueError(f"input dimension {v_vals.shape[0]} does not match codebooks ({D})")
    if not np.all(np.isfinite(v_vals)):
        raise ValueError("input has non-finite components")

    # attempts and sweeps reuse these buffers: a fresh array per step, sweep
    # or attempt makes the allocator fault in new pages, and copying K x D
    # arrays is the part of a sweep whose time swings most with the host's load
    state = ResonatorState(estimates=np.empty((K, D), dtype=np.complex128))
    prev = np.empty_like(state.estimates)
    residual, scratch = np.empty(D, dtype=np.complex128), np.empty(D, dtype=np.complex128)
    summaries = [None] * K  # each factor's last step summary, read once per attempt
    best = None  # (claim cosine, estimates, labels)

    for attempt in range(1 + config.max_restarts):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(attempt,)))
        _random_init(codebooks, rng, out=state.estimates)
        state.restarts_used = attempt
        # P = v (.) prod_i conj(est_i), kept current step by step (see the
        # module docstring); it is not recomputed per sweep, and its drift
        # cannot reach a claim, which _claim_cosine checks on exact rows
        unbound = v_vals * state.estimates.prod(axis=0).conj()
        for _ in range(config.max_iters):
            # the sweep writes over the buffer of the sweep before last and
            # keeps the estimates it replaces in prev; a step reads only its
            # own factor's estimate, so the stale rows are never read
            prev, state.estimates = state.estimates, prev
            for j in range(K):
                np.multiply(unbound, prev[j], out=residual)
                summaries[j] = _apply_step(state, codebooks, j, residual)
                np.multiply(residual, np.conjugate(state.estimates[j], out=scratch), out=unbound)
            state.iteration += 1
            sim = float(np.real(np.vdot(prev.ravel(), state.estimates.ravel())) / (K * D))
            if sim >= ALPHA:
                break
        # no step reads a label, so only the attempt's last sweep is decoded
        state.labels[:] = [_label(cb, s) for cb, s in zip(codebooks, summaries)]
        state.claim_cosine = _claim_cosine(v_vals, codebooks, state.labels)
        if state.claim_cosine >= VERIFY_THRESHOLD:
            state.converged = True
            break
        if best is None or state.claim_cosine > best[0]:
            best = (state.claim_cosine, state.estimates.copy(), state.labels.copy())
    else:
        state.claim_cosine, state.estimates, state.labels = best
    return state


def decode_residue_number(
    sys: ResidueSystem,
    v,
    config: ResonatorConfig | None = None,
    codebooks: Sequence[Codebook] | None = None,
):
    """Factorize a composed encoding and CRT-reconstruct x in [0, M).

    Returns (x, state); inspect state.converged before trusting x. The
    codebooks are sys's bases unless others are passed in; their sizes
    must be sys's moduli, in order, or ValueError is raised.
    """
    codebooks = sys.bases if codebooks is None else codebooks
    if [cb.n_entries for cb in codebooks] != list(sys.moduli):
        raise ValueError(f"codebook sizes {[cb.n_entries for cb in codebooks]} do not match moduli {list(sys.moduli)}")
    state = resonator_factorize(v, codebooks, config)
    return crt_reconstruct(state.labels, sys.moduli), state


def sub_integer_decode(
    sys: ResidueSystem,
    v,
    r: int,
    config: ResonatorConfig | None = None,
):
    """Decode a rational encoded on the grid of r partitions per unit.

    Three steps: run the resonator to a fixed point over the integer
    codebooks, find the nearest integer codebook entries per modulus
    and reconstruct candidate anchor integers, then codebook-decode the
    input against the encodings of all fractional grid values within
    range 1 of each anchor. Returns (value, state) with value a
    Fraction reduced into [0, M).

    state.claim_cosine is the returned value's score, the cosine between
    its encoding and the input, and state.converged is True when that
    score reaches VERIFY_THRESHOLD, the rule every decode accepts by.
    Adjacent grid values also score high against a right answer, so the
    check confirms a match, not that the match is unique.

    A fractional value midway between integers makes "nearest" ambiguous
    per modulus, and mixing rounding directions across moduli would CRT
    to a far-off anchor, so the two top entries per modulus are combined
    into the consistent anchor candidates and scored jointly.
    """
    if r < 1:
        raise ValueError(f"partitions must be >= 1, got {r}")
    state = resonator_factorize(v, sys.bases, config)
    v_vals = v.values if isinstance(v, PhasorVector) else np.asarray(v)
    M = sys.range_M
    # nearest and runner-up integer per modulus, by gauge-invariant magnitude
    top2 = []
    for j, base in enumerate(sys.bases):
        coeffs = np.abs(base.project(_unbind(v_vals, state.estimates, j)))
        state.codebook_evaluations += base.n_entries
        top2.append([int(i) for i in np.argsort(-coeffs)[:2]])
    anchors = sorted({crt_reconstruct(combo, sys.moduli) for combo in itertools.product(*top2)})
    offsets = [Fraction(j, r) for j in range(-(r - 1), r)]
    best_value, best_score = None, -np.inf
    for anchor in anchors:
        for off in offsets:
            cand = sys.encode_rational(anchor + off.numerator / off.denominator)
            score = float(np.mean(np.real(v_vals * np.conj(cand.values))))
            state.codebook_evaluations += 1
            if score > best_score:
                best_value, best_score = anchor + off, score
    state.claim_cosine, state.converged = best_score, best_score >= VERIFY_THRESHOLD
    return Fraction(best_value.numerator % (M * best_value.denominator), best_value.denominator), state


def subinteger_overlay(
    sys: ResidueSystem,
    q: float,
    config: ResonatorConfig | None = None,
):
    """Converged-state inner products next to their kernel prediction.

    For a fractional input, the magnitude of the inner product between
    the settled factor state and integer entry r should follow the
    sinc-comb kernel |K_m(q - r)|. Returns (modulus, entry, measured,
    predicted) rows for plotting; qualitative, no tolerance attached.
    """
    state = resonator_factorize(sys.encode_rational(q), sys.bases, config)
    rows = []
    for j, base in enumerate(sys.bases):
        coeffs = np.abs(base.project(state.estimates[j])) / sys.dim
        for r in range(base.modulus):
            predicted = abs(analytic_kernel(base.modulus, q - r))
            rows.append((base.modulus, r, float(coeffs[r]), float(predicted)))
    return rows


def bits_per_vector(a: float, P: int) -> float:
    """Information decoded per vector at accuracy a over P states.

    a log2(P a) + (1-a) log2(P (1-a) / (P-1)); zero at chance (a = 1/P),
    log2(P) at a = 1, with the a -> 0 and a -> 1 limits built in.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"accuracy must be in [0, 1], got {a}")
    if P < 2:
        raise ValueError(f"search space must be >= 2, got {P}")
    out = 0.0
    if a > 0.0:
        out += a * math.log2(P * a)
    if a < 1.0:
        out += (1.0 - a) * math.log2(P / (P - 1) * (1.0 - a))
    return out


# --- experiments ----------------------------------------------------------


def consecutive_primes(start: int, count: int) -> list[int]:
    """The first `count` primes >= start."""
    out = []
    n = max(2, start)
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n += 1
    return out


def decode_accuracy(
    sys: ResidueSystem,
    trials: int,
    kappa: float = math.inf,
    seed: int = 0,
    config: ResonatorConfig | None = None,
):
    """Round-trip decode accuracy over random integers, with optional phase noise.

    Returns (accuracy, mean_evaluations), deterministic per seed;
    raises ValueError when trials < 1. A right answer matches a noisy
    input only at about I1(kappa)/I0(kappa), which can sit below
    VERIFY_THRESHOLD; such a decode runs every attempt and returns the
    best-scoring one.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    M = sys.range_M
    base_cfg = config or ResonatorConfig(max_iters=30, max_restarts=3)
    hits, evaluations = [], []
    for t in range(trials):
        s_x, s_noise, s_res = _child_seeds(seed, (t,), 3)
        x = int(np.random.default_rng(s_x).integers(M))
        vec = add_phase_noise(sys.encode(x), NoiseModel(kappa, s_noise))
        decoded, st = decode_residue_number(sys, vec, replace(base_cfg, seed=s_res))
        hits.append(decoded == x)
        evaluations.append(st.codebook_evaluations)
    return float(np.mean(hits)), float(np.mean(evaluations))


@dataclass
class CapacityPoint:
    moduli: tuple[int, ...]
    M: int
    accuracy: float
    mean_evaluations: float
    trials: int


@dataclass
class CapacityResult:
    D: int
    K: int
    kappa: float
    accuracy_threshold: float
    points: list[CapacityPoint] = field(default_factory=list)

    @property
    def capacity(self) -> int:
        """Largest tested range with accuracy at or above the threshold."""
        passing = [p.M for p in self.points if p.accuracy >= self.accuracy_threshold]
        return max(passing) if passing else 0

    def capacity_interpolated(self) -> float:
        """Threshold crossing of the accuracy curve, interpolated in log M.

        Less quantized than :attr:`capacity` when the prime windows are
        coarse: the crossing between the last window at or above the
        threshold and the next one below it is located on a log-M line.
        """
        thr = self.accuracy_threshold
        passing = [i for i, p in enumerate(self.points) if p.accuracy >= thr]
        if not passing:
            return 0.0
        i = max(passing)
        if i + 1 >= len(self.points):
            return float(self.points[i].M)
        lo, hi = self.points[i], self.points[i + 1]
        if lo.accuracy == hi.accuracy:
            return float(lo.M)
        frac = (lo.accuracy - thr) / (lo.accuracy - hi.accuracy)
        return float(math.exp(math.log(lo.M) + frac * math.log(hi.M / lo.M)))


def capacity_experiment(
    D: int,
    K: int,
    kappa: float = math.inf,
    accuracy_threshold: float = 0.95,
    stop_threshold: float | None = None,
    trials: int = 100,
    seed: int = 0,
    config: ResonatorConfig | None = None,
    growth: float = 1.5,
    max_M: int | None = None,
) -> CapacityResult:
    """Sweep K-consecutive-prime moduli windows upward in M and measure accuracy.

    Windows slide along the ascending prime list; to keep runtime sane
    the next measured window is the first one whose M grows by at least
    `growth`. The sweep stops once accuracy falls below stop_threshold
    (default: the accuracy threshold itself) or M exceeds max_M. Raises
    ValueError when K < 1, which leaves no window to measure.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if stop_threshold is None:
        stop_threshold = accuracy_threshold
    result = CapacityResult(D=D, K=K, kappa=kappa, accuracy_threshold=accuracy_threshold)
    primes = consecutive_primes(2, K + 64)
    widx = 0
    last_M = 0
    window_number = 0
    while True:
        while widx + K > len(primes):
            primes += consecutive_primes(primes[-1] + 1, 64)
        moduli = tuple(primes[widx : widx + K])
        M = math.prod(moduli)
        if M < max(2, math.ceil(last_M * growth)):
            widx += 1
            continue
        if max_M is not None and M > max_M:
            break
        sys_seed = _child_seeds(seed, (window_number, 0))[0]
        sys = make_residue_system(moduli, D, sys_seed)
        acc, mean_evals = decode_accuracy(
            sys, trials, kappa=kappa, seed=_child_seeds(seed, (window_number, 1))[0],
            config=config,
        )
        result.points.append(
            CapacityPoint(moduli=moduli, M=M, accuracy=acc, mean_evaluations=mean_evals, trials=trials)
        )
        if acc < stop_threshold:
            break
        last_M = M
        widx += 1
        window_number += 1
    return result


def subinteger_experiment(
    sys: ResidueSystem,
    r: int,
    trials: int,
    kappa: float = math.inf,
    seed: int = 0,
    config: ResonatorConfig | None = None,
):
    """Accuracy and bits-per-vector for decoding values on the r-partition grid.

    Each trial draws x uniform on [0, M) and an offset j/r, encodes
    x + j/r, optionally adds phase noise, and requires the decoded
    Fraction to match exactly. Returns (accuracy, bits, P); raises
    ValueError when trials < 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    M = sys.range_M
    P = M * r
    base_cfg = config or ResonatorConfig(max_iters=30)
    hits = 0
    for t in range(trials):
        s_x, s_noise, s_res = _child_seeds(seed, (t,), 3)
        rng = np.random.default_rng(s_x)
        truth = Fraction(int(rng.integers(M)) * r + int(rng.integers(r)), r)
        vec = add_phase_noise(sys.encode_rational(float(truth)), NoiseModel(kappa, s_noise))
        decoded, _ = sub_integer_decode(sys, vec, r, replace(base_cfg, seed=s_res))
        if decoded == truth:
            hits += 1
    acc = hits / trials
    return acc, bits_per_vector(acc, P), P
