"""Resonator-network factorization and decoding.

A vector composed as a Hadamard product of one codebook entry per
factor is pulled apart by iterating, one factor at a time,

    est_j <- g( Z_j Z_j^H ( v (.) prod_{i != j} conj(est_i) ) )

where Z_j stacks factor j's codebook entries and g projects every
component back onto the unit circle. The loop runs asynchronous sweeps
(each factor once per sweep). An attempt is accepted as soon as a sweep
leaves estimates whose own product reproduces the input and whose
decoded labels pass the claim check (see ResonatorConfig); otherwise it
runs until the cosine similarity between successive full states
reaches the threshold ALPHA, or its sweep budget ends.

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
products with a residual x are the DFT of h, x summed per phase index
(h[u_j] += x_j), and since that DFT is invertible the cleanup
(conj(Z) @ x) @ Z is the group sum m * h[u].

A step computes only what the next step reads: it writes the new
estimate into the state's row and returns a summary (h for a
ModulusBase, the coefficients for a Codebook) from which
coefficients() gives the m inner products. No step reads a label, so a
modular step costs O(D + m) time and O(D) memory in place of the
O(m * D) of dense matrix products. Labels are read from the factors'
last summaries, by one length-m DFT per factor, only where a sweep is
decoded: when the attempt ends, and, between, after a sweep whose
estimates pass a gate that costs one D-length sum. The gate is
|sum(P)| > VERIFY_THRESHOLD * sqrt(D) * |v|: the cosine, up to a global
phase, between the input and the estimates' own product, read from the
unbound product P the attempt already keeps, and never passed by a zero
input. Only a sweep that passes it reads labels and scores the claim,
so a right attempt stops a few sweeps before it settles, and a sweep
whose estimates do not reproduce the input runs no DFT.
codebook_evaluations still counts m inner products per step, the
paper's unit of cost, not the DFTs run.

A caller that needs the settled state passes settle=True, which skips
the gate, so every attempt sweeps until it settles as before:
sub_integer_decode and subinteger_overlay, which read the fractional
phase the settled estimates carry (at the subint command's defaults the
settled overlay is within 0.09 of the kernel, the first estimates that
reproduce the input up to 0.45 from it), and
SceneCodec.factorize_scene, whose standard layout would otherwise save
more sweeps than its residue layout and shrink the evaluation ratio
between the two that the paper's scene experiment measures.

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
from .phasor import ModulusBase, PhasorVector, _cosine, _count, _index, _unit_into, add_phase_noise, similarity
from .residue import ResidueSystem, _child_seeds, _is_prime, crt_reconstruct, make_residue_system

__all__ = [
    "Codebook",
    "ResonatorConfig",
    "ResonatorState",
    "build_residue_codebooks",
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
    step costs the O(m * D) of two matrix products. The library builds
    one only for a scene's object book; residue books are ModulusBases
    and subset-sum factors are ItemBooks.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2:
            raise ValueError("codebook matrix must be 2-D (entries, dim)")
        if 0 in matrix.shape:
            raise ValueError(f"codebook needs at least one entry and dim >= 1, got shape {matrix.shape}")
        self.matrix = matrix  # (entries, dim) complex rows

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

    An attempt is accepted when the Hadamard product of the codebook
    entries it decoded has cosine at least VERIFY_THRESHOLD with the
    input. That claim is scored after any sweep whose estimates' own
    product already has that cosine with the input, and once more when
    the attempt ends: at max_iters sweeps, or earlier once the
    successive-state similarity reaches ALPHA. An attempt that ends
    unaccepted is followed by one from fresh random phases, up to
    max_restarts times. Both counts, and the seed unless
    it is None, must be integers (a float, bool or string raises an error
    that is both a TypeError and a ValueError), and none may be negative.
    `verify` is accepted for old callers only and must be True.
    """

    max_iters: int = 50
    max_restarts: int = 0
    seed: int | None = None
    verify: InitVar[bool] = True

    def __post_init__(self, verify):
        if not verify:
            raise ValueError("every resonator run verifies its answer; verify=False is not supported")
        self.max_iters = _count(self.max_iters, "max_iters")
        self.max_restarts = _index(self.max_restarts, "max_restarts")
        if self.seed is not None:
            self.seed = _index(self.seed, "seed")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ResonatorState:
    """Per-factor estimates plus convergence and cost bookkeeping.

    labels holds the decoded entry of each factor as its codebook row
    index, read after the sweep its attempt stopped at. converged is
    True when an attempt's decoded labels reproduce the input, so they
    are the answer for any input that is a clean product of codebook
    entries.
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


def _label(book, summary: np.ndarray) -> int:
    """The entry a step's summary decodes to."""
    # factor estimates settle only up to a global phase per factor (the
    # rotations cancel in the composed product), so the per-factor label
    # uses the gauge-invariant coefficient magnitude
    return int(np.argmax(np.abs(book.coefficients(summary))))


# the 2^16-th roots of unity (1 MiB): an initial phase is one of them, drawn
# uniformly, which is a table lookup instead of a complex exp per component
_INIT_ROOTS = PhasorVector.exact(np.arange(2**16), 2**16).values


def _random_init(codebooks, rng, out=None) -> np.ndarray:
    """K x D initial estimates, written into out when it is given.

    The root indices are the first K * D little-endian 16-bit words of raw
    64-bit draws: from a fresh generator, as each attempt's is, the values
    of rng.integers(2**16, size=(K, D), dtype=np.uint16), drawn faster.
    """
    K, D = len(codebooks), codebooks[0].dim
    words = rng.bit_generator.random_raw(-(-K * D // 4)).astype("<u8", copy=False)
    # uint16 indices fit the table, so mode="wrap" never wraps; unlike "raise" it writes into out directly
    return _INIT_ROOTS.take(words.view("<u2")[:K * D].reshape(K, D), out=out, mode="wrap")


def _claim_cosine(v_vals: np.ndarray, codebooks, labels) -> float:
    """Cosine between the input and the product of the decoded entries."""
    # a running product, in np.prod's order, instead of stacking K rows
    product = np.array(codebooks[0].row(labels[0]))
    for cb, i in zip(codebooks[1:], labels[1:]):
        product *= cb.row(i)
    return _cosine(product, v_vals)


def resonator_factorize(
    v,
    codebooks: Sequence[Codebook],
    config: ResonatorConfig | None = None,
    *,
    settle: bool = False,
) -> ResonatorState:
    """Run asynchronous sweeps until an attempt is accepted, restarting on demand.

    An attempt stops at the first sweep whose decoded claim passes (see
    ResonatorConfig for the rule). With settle=True no claim is scored
    before the attempt's last sweep, so every attempt sweeps until its
    state settles or its budget ends, and the returned estimates are
    that settled state; callers that read the estimates themselves pass
    it. Both rules give the same attempt trajectories up to where the
    default stops, so the default never takes more sweeps or attempts.

    Returns a state whose `converged` flag reports whether an attempt
    was accepted. A failed run still carries the labels and estimates
    of the attempt whose decoded product came closest to the input,
    with converged False, never a silent wrong claim.
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
    if v_vals.shape != (D,):
        raise ValueError(f"input shape {v_vals.shape} is not the codebooks' ({D},)")
    if not np.all(np.isfinite(v_vals)):
        raise ValueError("input has non-finite components")

    # attempts and sweeps reuse these buffers: a fresh array per step, sweep
    # or attempt makes the allocator fault in new pages, and copying K x D
    # arrays is the part of a sweep whose time swings most with the host's load
    state = ResonatorState(estimates=np.empty((K, D), dtype=np.complex128))
    prev = np.empty_like(state.estimates)
    residual, scratch = np.empty(D, dtype=np.complex128), np.empty(D, dtype=np.complex128)
    summaries = [None] * K  # each factor's last step summary, read only where a sweep is decoded
    best = None  # (claim cosine, labels) of the best failed attempt so far
    best_estimates = None  # its estimates: one buffer, allocated at the first failed attempt

    # the gate of the module docstring: |sum(P)| / (sqrt(D) |v|) is the
    # cosine, up to a global phase, between the input and the estimates'
    # product; strict, so a zero input never passes
    gate = VERIFY_THRESHOLD * math.sqrt(D) * float(np.linalg.norm(v_vals))

    for attempt in range(1 + config.max_restarts):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(attempt,)))
        _random_init(codebooks, rng, out=state.estimates)
        state.restarts_used = attempt
        # P = v (.) prod_i conj(est_i), kept current step by step (see the
        # module docstring); it is not recomputed per sweep, and its drift
        # cannot reach a claim, which _claim_cosine checks on exact rows
        unbound = v_vals * state.estimates.prod(axis=0).conj()
        for sweep in range(1, config.max_iters + 1):
            # the sweep writes over the buffer of the sweep before last and
            # keeps the estimates it replaces in prev; a step reads only its
            # own factor's estimate, so the stale rows are never read
            prev, state.estimates = state.estimates, prev
            for j in range(K):
                np.multiply(unbound, prev[j], out=residual)
                summaries[j] = codebooks[j].step(residual, state.estimates[j])
                state.codebook_evaluations += codebooks[j].n_entries
                np.multiply(residual, np.conjugate(state.estimates[j], out=scratch), out=unbound)
            state.iteration += 1
            sim = float(np.real(np.vdot(prev.ravel(), state.estimates.ravel())) / (K * D))
            settled = sim >= ALPHA or sweep == config.max_iters
            # no step reads a label: a sweep is decoded only when the attempt
            # ends or its estimates' own product reproduces the input
            if settled or (not settle and abs(unbound.sum()) > gate):
                state.labels[:] = [_label(cb, s) for cb, s in zip(codebooks, summaries)]
                state.claim_cosine = _claim_cosine(v_vals, codebooks, state.labels)
                if settled or state.claim_cosine >= VERIFY_THRESHOLD:
                    break
        if state.claim_cosine >= VERIFY_THRESHOLD:
            state.converged = True
            break
        if best is None or state.claim_cosine > best[0]:
            if best_estimates is None:
                best_estimates = np.empty_like(state.estimates)
            np.copyto(best_estimates, state.estimates)
            best = (state.claim_cosine, state.labels.copy())
    else:
        state.claim_cosine, state.labels = best
        state.estimates = best_estimates
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
    codebooks (settle=True, so the top entries are read from the
    settled state whose fractional phase subinteger_overlay plots),
    find the nearest integer codebook entries per modulus
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
    into the consistent anchor candidates and scored jointly. Raises
    ValueError, before any decode, unless r is an integer >= 1.
    """
    r = _count(r, "partitions")
    state = resonator_factorize(v, sys.bases, config, settle=True)
    v = v if isinstance(v, PhasorVector) else PhasorVector.dense(v, validate=False)
    # nearest and runner-up integer per modulus, by gauge-invariant magnitude;
    # factor j's residual is the unbound product times est_j, as in a sweep
    unbound = v.values * state.estimates.prod(axis=0).conj()
    top2 = []
    for j, base in enumerate(sys.bases):
        coeffs = np.abs(base.project(unbound * state.estimates[j]))
        state.codebook_evaluations += base.n_entries
        top2.append([int(i) for i in np.argsort(-coeffs)[:2]])
    anchors = sorted({crt_reconstruct(combo, sys.moduli) for combo in itertools.product(*top2)})
    best_numerator, best_score = None, -np.inf
    for a in anchors:
        for j in range(1 - r, r):
            score = similarity(v, sys.encode_rational(a + j / r))
            state.codebook_evaluations += 1
            if score > best_score:
                best_numerator, best_score = a * r + j, score
    state.claim_cosine, state.converged = best_score, best_score >= VERIFY_THRESHOLD
    return Fraction(best_numerator, r) % sys.range_M, state


def subinteger_overlay(
    sys: ResidueSystem,
    q: float,
    config: ResonatorConfig | None = None,
):
    """Converged-state inner products next to their kernel prediction.

    For a fractional input, the magnitude of the inner product between
    the settled factor state and integer entry r should follow the
    sinc-comb kernel |K_m(q - r)|, so the resonator runs with
    settle=True. Returns (modulus, entry, measured, predicted) rows for
    plotting.
    """
    state = resonator_factorize(sys.encode_rational(q), sys.bases, config, settle=True)
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
    if _index(P, "P") < 2:
        raise ValueError(f"search space must be >= 2, got {P}")
    out = 0.0
    if a > 0.0:
        out += a * math.log2(P * a)
    if a < 1.0:
        out += (1.0 - a) * math.log2(P / (P - 1) * (1.0 - a))
    return out


# --- experiments ----------------------------------------------------------


def consecutive_primes(start: int, count: int) -> list[int]:
    """The first `count` primes >= start; both must be integers."""
    count = _index(count, "count")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    out = []
    n = max(2, _index(start, "start"))
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n += 1
    return out


def _prime_windows(K: int):
    """Every window of K consecutive primes, from (2, 3, ...) upward."""
    window = consecutive_primes(2, K)
    while True:
        yield tuple(window)
        window = window[1:] + consecutive_primes(window[-1] + 1, 1)


def decode_accuracy(
    sys: ResidueSystem,
    trials: int,
    kappa: float = math.inf,
    seed: int = 0,
    config: ResonatorConfig | None = None,
):
    """Round-trip decode accuracy over random integers, with optional phase noise.

    Returns (accuracy, mean_evaluations), deterministic per seed;
    raises ValueError unless trials is an integer >= 1. A right answer
    matches a noisy input only at about I1(kappa)/I0(kappa), which can
    sit below VERIFY_THRESHOLD; such a decode runs every attempt and
    returns the best-scoring one.
    """
    trials = _count(trials, "trials")
    M = sys.range_M
    base_cfg = config or ResonatorConfig(max_iters=30, max_restarts=3)
    hits, evaluations = [], []
    for t in range(trials):
        s_x, s_noise, s_res = _child_seeds(seed, (t,), 3)
        x = int(np.random.default_rng(s_x).integers(M))
        vec = add_phase_noise(sys.encode(x), kappa, s_noise)
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
    ValueError unless K is an integer >= 1; K < 1 leaves no window to measure.
    """
    K = _count(K, "K")
    if stop_threshold is None:
        stop_threshold = accuracy_threshold
    result = CapacityResult(D=D, K=K, kappa=kappa, accuracy_threshold=accuracy_threshold)
    last_M = 0
    for moduli in _prime_windows(K):
        M = math.prod(moduli)
        if M < max(2, math.ceil(last_M * growth)):
            continue
        if max_M is not None and M > max_M:
            break
        window_number = len(result.points)
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
    ValueError unless r and trials are integers >= 1.
    """
    r, trials = _count(r, "partitions"), _count(trials, "trials")
    M = sys.range_M
    P = M * r
    base_cfg = config or ResonatorConfig(max_iters=30)
    hits = 0
    for t in range(trials):
        s_x, s_noise, s_res = _child_seeds(seed, (t,), 3)
        rng = np.random.default_rng(s_x)
        truth = Fraction(int(rng.integers(M)) * r + int(rng.integers(r)), r)
        vec = add_phase_noise(sys.encode_rational(float(truth)), kappa, s_noise)
        decoded, _ = sub_integer_decode(sys, vec, r, replace(base_cfg, seed=s_res))
        if decoded == truth:
            hits += 1
    acc = hits / trials
    return acc, bits_per_vector(acc, P), P
