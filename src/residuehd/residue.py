"""Residue number composition and carry-free vector arithmetic.

An integer x is represented by the Hadamard product of per-modulus
encodings over pairwise co-prime moduli m_1..m_K:

    z(x) = z_{m_1}(x) (.) z_{m_2}(x) (.) ... (.) z_{m_K}(x)

which is unique on [0, M) with M = prod m_k while storing only
b = sum m_k codebook vectors. Componentwise operations implement the
ring arithmetic:

    addition:        z(x1) (.) z(x2)          = z(x1 + x2)
    multiplication:  f(f(z_m(x1), z_m(x2)), y_m) per modulus, where f
                     multiplies phase indices mod m and y_m is the
                     anti-base of modular multiplicative inverses.

An exact composed vector holds its per-modulus factors exactly:
:meth:`ResidueSystem.split` raises it componentwise to the CRT
idempotent of each modulus, so multiplication needs no decoder, and
the private ``ResidueSystem._compose``, its inverse, takes the factors
back to one composed vector in one step.
Multiplicative binding requires every modulus to be prime and every
base phase index nonzero. Division is not provided; see
:func:`multiply_by_constant_inverse` for the invertible-constant case.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .phasor import (
    _MAX_PERIOD,
    ModulusBase,
    PhasorVector,
    _count,
    _index,
    _rational_phases,
    base_from_dict,
    base_to_dict,
    conjugate,
    encode_integer,
    hadamard,
    sample_base,
)

__all__ = [
    "ResidueSystem",
    "make_residue_system",
    "add",
    "subtract",
    "anti_base",
    "f_op",
    "multiply",
    "multiply_by_constant_inverse",
    "crt_reconstruct",
    "landau_g",
    "system_to_dict",
    "system_from_dict",
    "save_system",
    "load_system",
]


def _check_pairwise_coprime(moduli: Sequence[int]) -> None:
    for i, a in enumerate(moduli):
        for b in moduli[i + 1 :]:
            if math.gcd(a, b) != 1:
                raise ValueError(f"moduli {a} and {b} are not co-prime (gcd {math.gcd(a, b)})")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class ResidueSystem:
    """A residue code: one random base vector per pairwise co-prime modulus.

    The bases are the whole state: the moduli (as ints) and D are read from them.
    Two constants derived from the bases are built on first use and kept, since
    the bases cannot change: :attr:`anti_bases`, which :func:`multiply` reads,
    and :attr:`composed_base`, the composed code as one modular code of modulus
    M. A call that raises keeps nothing, and a record holds neither.
    :meth:`split` takes an exact composed vector to its per-modulus factors,
    and ``_compose`` takes factors back to one composed vector.
    """

    def __init__(self, bases: Iterable[ModulusBase]):
        self.bases = tuple(bases)
        dims = {b.dim for b in self.bases}
        if len(dims) != 1:
            raise ValueError(f"need one or more bases of one dimension, got dimensions {sorted(dims)}")
        self.dim = dims.pop()
        self.moduli = tuple(b.modulus for b in self.bases)
        if min(self.moduli) < 2:
            raise ValueError(f"modulus must be >= 2, got {min(self.moduli)}")
        _check_pairwise_coprime(self.moduli)

    @property
    def range_M(self) -> int:
        return math.prod(self.moduli)

    @cached_property
    def anti_bases(self) -> tuple[PhasorVector, ...]:
        """The anti-base of each base; raises ValueError unless :func:`anti_base` accepts every base."""
        return tuple(anti_base(b) for b in self.bases)

    @cached_property
    def composed_base(self) -> ModulusBase:
        """The composed code as one modular code: modulus M and the indices w of z(1).

        Over co-prime moduli z(x) = z(1)^x, so the composition of
        encode_factors(x) has indices w * x mod M. Raises ValueError when M
        exceeds the exact period limit.
        """
        one = self._compose(self.encode_factors(1))
        return ModulusBase(one.period, one.indices)

    def _compose(self, factors: Sequence[PhasorVector]) -> PhasorVector:
        """The hadamard chain of one exact factor per modulus, in one step; inverts :meth:`split`."""
        M = self.range_M
        if M > _MAX_PERIOD:  # checked first: above it M // m can wrap int64
            raise ValueError(f"combined period {M} exceeds the exact period limit {_MAX_PERIOD}")
        # factor k contributes f_k * (M // m_k), each term below M
        return PhasorVector.exact(sum(f.indices * (M // m) for m, f in zip(self.moduli, factors)), M)

    def encode_factors(self, x: int) -> list[PhasorVector]:
        """Per-modulus exact encodings [z_{m_1}(x), ..., z_{m_K}(x)] of an integer x."""
        return [encode_integer(b, x) for b in self.bases]

    def encode(self, x: int) -> PhasorVector:
        """Composed exact encoding of an integer x, with period M = prod(moduli).

        Raises ValueError when M exceeds the exact period limit.
        """
        return encode_integer(self.composed_base, x)

    def split(self, v: PhasorVector) -> list[PhasorVector]:
        """Per-modulus factors of an exact composed vector; inverts :meth:`encode`.

        The factor for modulus m is v raised componentwise to the CRT
        idempotent of m, read at period m; ``_compose`` is the inverse.
        Raises ValueError unless v is exact with period M.
        """
        M = self.range_M
        if not v.is_exact or v.period != M:
            raise ValueError("expected an exact composed vector with period M")
        return [PhasorVector.exact(v.indices % m * pow(M // m, -1, m), m) for m in self.moduli]

    def encode_rational(self, q: float) -> PhasorVector:
        """Dense composed encoding of a real/rational value: one exp of encode_rational's phases, summed over bases."""
        return PhasorVector.dense(np.exp(1j * sum(_rational_phases(b, q) for b in self.bases)), validate=False)

    def __repr__(self):
        return f"ResidueSystem(moduli={self.moduli}, D={self.dim}, M={self.range_M})"


def make_residue_system(moduli, D: int, seed: int, nonzero_only: bool = False) -> ResidueSystem:
    """Sample K independent bases, one per modulus, from a single root seed.

    Child seeds are derived deterministically, so (moduli, D, seed,
    nonzero_only) fully reproduces the system.
    """
    return ResidueSystem(
        sample_base(m, D, _child_seeds(seed, (k,))[0], nonzero_only=nonzero_only)
        for k, m in enumerate(moduli)
    )


def _child_seeds(seed: int, key: tuple[int, ...], n: int = 1) -> list[int]:
    """n integer seeds drawn from the child of `seed` at spawn key `key`."""
    return [int(s) for s in np.random.SeedSequence(seed, spawn_key=key).generate_state(n)]


def add(sys: ResidueSystem, a: PhasorVector, b: PhasorVector) -> PhasorVector:
    """z(x1) (.) z(x2) = z(x1 + x2 mod M), bit-exact on exact forms."""
    return hadamard(a, b)


def subtract(sys: ResidueSystem, a: PhasorVector, b: PhasorVector) -> PhasorVector:
    """z(x1) (.) conj(z(x2)) = z(x1 - x2 mod M)."""
    return hadamard(a, conjugate(b))


def anti_base(base: ModulusBase) -> PhasorVector:
    """y_m: the exact vector with indices v_j = u_j^(-1) mod m.

    Requires a prime modulus and nonzero indices. Computed as the Fermat
    power u^(m-2) by squaring; m <= _MAX_PERIOD keeps products in int64.
    """
    m, u = base.modulus, base.phase_indices
    if not _is_prime(m):
        raise ValueError(f"anti-base requires a prime modulus, got {m}")
    if np.any(u == 0):
        raise ValueError("anti-base requires all phase indices nonzero (sample with nonzero_only)")
    inv, power, e = np.ones_like(u), u, m - 2
    while e:
        if e & 1:
            inv = inv * power % m
        power = power * power % m
        e >>= 1
    return PhasorVector.exact(inv, m)


def f_op(a: PhasorVector, b: PhasorVector) -> PhasorVector:
    """Discrete phase multiplication: indices r, s map to (r * s) mod m.

    Both inputs must be exact with the same period.
    """
    if not (a.is_exact and b.is_exact):
        raise ValueError("f_op is defined on exact-form vectors only")
    if a.period != b.period:
        raise ValueError(f"period mismatch: {a.period} vs {b.period}")
    return PhasorVector.exact(a.indices * b.indices, a.period)


def multiply(sys: ResidueSystem, a, b) -> PhasorVector:
    """Multiplicative binding: z(x1) * z(x2) -> z(x1 * x2 mod M).

    Each operand is either a list of K exact per-modulus factors, as
    returned by :meth:`ResidueSystem.encode_factors`, or an exact
    composed vector with period M, which :meth:`ResidueSystem.split`
    turns into that list. A dense operand raises ValueError: decode it
    first with `decode_residue_number` and pass `encode_factors` of the
    result; so does a dense vector in a factor list. All moduli must be
    prime and bases sampled with nonzero_only; :func:`anti_base` raises
    ValueError otherwise. The product reads the system's
    :attr:`~ResidueSystem.anti_bases`.
    """
    a, b = (sys.split(v) if isinstance(v, PhasorVector) else list(v) for v in (a, b))
    if len(a) != len(sys.moduli) or len(b) != len(sys.moduli):
        raise ValueError("need one factor vector per modulus")
    if not all(f.is_exact and f.period == m for m, fa, fb in zip(sys.moduli, a, b) for f in (fa, fb)):
        raise ValueError("each factor must be exact with its modulus as period")
    return sys._compose([f_op(f_op(fa, fb), y) for y, fa, fb in zip(sys.anti_bases, a, b)])


def multiply_by_constant_inverse(sys: ResidueSystem, v: PhasorVector, c: int) -> PhasorVector:
    """z(x) -> z(x * c^(-1) mod M) for a known constant c with gcd(c, M) = 1.

    Covers the invertible prime-modulus case only; general division is
    undefined in a residue system. c must be an integer.
    """
    M, c = sys.range_M, _index(c, "c")
    if not v.is_exact or v.period != M:
        raise ValueError("expected an exact composed vector with period M")
    if math.gcd(c % M, M) != 1:
        raise ValueError(f"constant {c} is not invertible modulo {M}")
    w = pow(c % M, -1, M)
    return PhasorVector.exact(v.indices * w, M)


def crt_reconstruct(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Unique x in [0, M) with x = r_k (mod m_k) for all k.

    Residues and moduli must be integers (Python or numpy ints); a float or
    bool raises an error that is both a TypeError and a ValueError rather
    than being truncated.
    """
    residues = [_index(r, "residue") for r in residues]
    moduli = [_index(m, "modulus") for m in moduli]
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli must have the same length")
    _check_pairwise_coprime(moduli)
    M = math.prod(moduli)
    x = 0
    for r, m in zip(residues, moduli):
        if not 0 <= r < m:
            raise ValueError(f"residue {r} out of range for modulus {m}")
        Mi = M // m
        x += r * Mi * pow(Mi, -1, m)
    return x % M


_LANDAU_MAX = 60


def landau_g(b: int) -> int:
    """Landau's function: the maximum lcm over integer partitions of b.

    Exact enumeration (the optimum is attained by pairwise co-prime prime
    powers padded with 1s); rejects b > 60 rather than approximating.
    b must be an integer.
    """
    b = _count(b, "b")
    if b > _LANDAU_MAX:
        raise ValueError(f"landau_g supports b <= {_LANDAU_MAX}, got {b}")
    primes = [p for p in range(2, b + 1) if _is_prime(p)]
    dp = [1] * (b + 1)
    for p in primes:
        for j in range(b, p - 1, -1):
            best = dp[j]
            q = p
            while q <= j:
                cand = dp[j - q] * q
                if cand > best:
                    best = cand
                q *= p
            dp[j] = best
    return max(dp)


# --- serialization ------------------------------------------------------

_SYSTEM_FORMAT = "residuehd/residue-system"
_SYSTEM_VERSION = 2


def system_to_dict(sys: ResidueSystem) -> dict:
    """The system's record (version 2): its bases' records, from which the moduli and D follow."""
    return {"format": _SYSTEM_FORMAT, "version": _SYSTEM_VERSION, "bases": [base_to_dict(b) for b in sys.bases]}


def system_from_dict(d: dict) -> ResidueSystem:
    """Rebuild a system from its record; a version-1 record (seeds, lossy) raises ValueError."""
    if not isinstance(d, dict) or d.get("format") != _SYSTEM_FORMAT:
        raise ValueError("not a residue-system record")
    if d.get("version") != _SYSTEM_VERSION:
        raise ValueError(f"unsupported residue-system version: {d.get('version')!r}")
    if not isinstance(d.get("bases"), list):
        raise ValueError("residue-system record needs a list of base records")
    return ResidueSystem(base_from_dict(b) for b in d["bases"])


def save_system(sys: ResidueSystem, path) -> None:
    Path(path).write_text(json.dumps(system_to_dict(sys)), encoding="ascii")


def load_system(path) -> ResidueSystem:
    return system_from_dict(json.loads(Path(path).read_text(encoding="ascii")))
