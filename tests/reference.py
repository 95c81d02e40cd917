"""Definitional references the tests compare the library against.

The library's sweep keeps one running unbound product and its modular
codebooks never build dense rows; these helpers do both the plain way:
the per-factor unbinding, the stepwise update it feeds, and the dense
rows of a base or of a full residue codebook. A system's rational
encoding exponentiates its summed phases once; rational_product binds
the per-base encodings instead. The oracles below them
answer by brute force what the library computes by structure: argmax
decoding against a whole codebook, the kernel as a sinc series, the
hexagonal state count by enumeration, subset sums by dynamic programming
and by enumeration, and the all-ones identity vector.
capacity_interpolated reads a capacity sweep's threshold crossing more
finely than CapacityResult.capacity, for the capacity-trend criterion.
"""

import math

import numpy as np

from residuehd.phasor import PhasorVector, _count, _index, encode_rational, hadamard
from residuehd.resonator import Codebook, _label


def unbind(v, estimates, j):
    """Factor j's residual: v (.) prod_{i != j} conj(est_i)."""
    residual = np.array(v, dtype=np.complex128)
    for i in range(estimates.shape[0]):
        if i != j:
            residual *= estimates[i].conj()
    return residual


def step(v, state, codebooks, j):
    """Update factor j of state in place from v and the other estimates, then decode it."""
    vals = v.values if isinstance(v, PhasorVector) else np.asarray(v)
    summary = codebooks[j].step(unbind(vals, state.estimates, j), state.estimates[j])
    state.codebook_evaluations += codebooks[j].n_entries
    state.labels[j] = _label(codebooks[j], summary)
    return state


def dense_rows(base):
    """A base's m entries z(0) .. z(m-1) stacked as an m x D matrix."""
    return np.stack([base.row(r) for r in range(base.modulus)])


def full_codebook(sys):
    """A dense Codebook of every encoding sys.encode(x), x in [0, M); entry x is row x."""
    return Codebook(np.stack([sys.encode(x).values for x in range(sys.range_M)]))


def rational_product(sys, q):
    """The Hadamard product of encode_rational(b, q) over the system's bases, one base at a time."""
    out = encode_rational(sys.bases[0], q)
    for b in sys.bases[1:]:
        out = hadamard(out, encode_rational(b, q))
    return out


def uint16_init_draw(rng, shape):
    """The resonator's initial root indices as numpy's full-range uint16 draw."""
    return rng.integers(2**16, size=shape, dtype=np.uint16)


def identity_vector(D):
    """The all-ones vector (phase 0 everywhere), exact with period 1."""
    return PhasorVector.exact(np.zeros(D, dtype=np.int64), 1)


def codebook_decode(v, codebook):
    """Row of the entry with the largest real inner product with v.

    Ties go to the lowest row. Raises ValueError unless v is one vector
    of shape (dim,), since argmax would run over a flattened stack, and
    when v or a score is not finite, since argmax would pick row 0 for a NaN.
    """
    vals = v.values if isinstance(v, PhasorVector) else np.asarray(v)
    if vals.shape != (codebook.dim,):
        raise ValueError(f"input shape {vals.shape} is not the codebook's ({codebook.dim},)")
    if not np.all(np.isfinite(vals)):
        raise ValueError("input has non-finite components")
    scores = codebook.project(vals).real
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite scores: the input overflows the inner products")
    return int(np.argmax(scores))


def capacity_interpolated(res):
    """A CapacityResult's threshold crossing of its accuracy curve, interpolated in log M.

    Less quantized than res.capacity when the prime windows are coarse:
    the crossing between the last window at or above the threshold and
    the next one below it is located on a log-M line.
    """
    thr = res.accuracy_threshold
    passing = [i for i, p in enumerate(res.points) if p.accuracy >= thr]
    if not passing:
        return 0.0
    i = max(passing)
    if i + 1 >= len(res.points):
        return float(res.points[i].M)
    lo, hi = res.points[i], res.points[i + 1]
    if lo.accuracy == hi.accuracy:
        return float(lo.M)
    frac = (lo.accuracy - thr) / (lo.accuracy - hi.accuracy)
    return float(math.exp(math.log(lo.M) + frac * math.log(hi.M / lo.M)))


def sinc_comb(m, dx, n_terms):
    """Truncated sinc comb: sum over s in [-n_terms, n_terms] of sinc(dx - m s).

    m and n_terms must be integers, and n_terms at least 1.
    """
    m, n_terms = _index(m, "modulus"), _count(n_terms, "n_terms")
    dx = np.asarray(dx, dtype=float)
    s = np.arange(-n_terms, n_terms + 1, dtype=float)
    out = np.sinc(dx[..., None] - m * s).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def hex_state_count_enumerated(m):
    """Brute-force count: orbits of {0..m-1}^3 under integer diagonal shifts.

    Every orbit has exactly one representative with a zero minimum
    coordinate, so counting canonical forms counts orbits.
    """
    m = _count(m, "modulus")
    seen = set()
    for a in range(m):
        for b in range(m):
            for c in range(m):
                lo = min(a, b, c)
                seen.add((a - lo, b - lo, c - lo))
    return len(seen)


def exact_baseline(S, T):
    """Dynamic program over reachable sums; returns item indices or None.

    Reachability is tracked in a single big-int bitset (bit s set iff
    sum s is reachable), and the subset is reconstructed by walking the
    per-prefix bitsets backward. Items and target must be integers; a
    float, string or bool raises an error that is both a TypeError and a ValueError
    rather than being truncated.
    """
    S = [_index(s, "item") for s in S]
    if any(s <= 0 for s in S):
        raise ValueError("items must be positive integers")
    T = _index(T, "target")
    if T < 0:
        return None
    prefix = [1]
    mask = 1
    for s in S:
        mask |= mask << s
        prefix.append(mask)
    if not (mask >> T) & 1:
        return None
    chosen = []
    t = T
    for i in range(len(S), 0, -1):
        if (prefix[i - 1] >> t) & 1:
            continue
        chosen.append(i - 1)
        t -= S[i - 1]
    assert t == 0
    return tuple(sorted(chosen))


def brute_force_baseline(S, T):
    """2^|S| enumeration, the oracle of oracles for small instances.

    Items and target must be integers; a float, string or bool raises
    an error that is both a TypeError and a ValueError.
    """
    S = [_index(s, "item") for s in S]
    T = _index(T, "target")
    n = len(S)
    if n > 22:
        raise ValueError("brute force limited to |S| <= 22")
    for mask in range(1 << n):
        total = 0
        for i in range(n):
            if mask >> i & 1:
                total += S[i]
        if total == T:
            return tuple(i for i in range(n) if mask >> i & 1)
    return None
