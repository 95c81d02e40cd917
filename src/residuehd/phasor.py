"""Random phasor base vectors and the encoding substrate.

A code vector is a list of D unit-magnitude complex numbers (phasors).
Integers are encoded by componentwise exponentiation of a random base
vector whose phases are m-th roots of unity:

    base:        z = [e^{i 2pi u_1 / m}, ..., e^{i 2pi u_D / m}],  u_j in Z_m
    encoding:    z(x) = z^x, so component j carries phase index (u_j * x) mod m
    similarity:  K(a, b) = (1/D) Re <a, conj(b)>

Two concrete vector forms share these semantics:

* exact form: integer phase indices modulo a common period L. All
  integer algebra (binding, conjugation, composition) stays in integer
  arithmetic and is therefore bit-exact. Every exact period is at most
  _MAX_PERIOD = isqrt(2^63 - 1), so the sum or product of two indices
  never overflows int64; a larger period raises ValueError.
* dense form: complex float components, used for rational encodings and
  for vectors carrying phase noise.

Binding two exact vectors with periods L1, L2 yields period lcm(L1, L2).

A ModulusBase is also the codebook of its modulus, the entries
z(0) .. z(m-1), and carries the group-sum step the resonator runs on it.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "PhasorVector",
    "ModulusBase",
    "sample_base",
    "encode_integer",
    "encode_rational",
    "similarity",
    "hadamard",
    "conjugate",
    "phase_normalize",
    "add_phase_noise",
    "base_to_dict",
    "base_from_dict",
    "save_base",
    "load_base",
]

_UNIT_TOL = 1e-9
# Largest exact period: the sum or product of two indices below it fits in
# int64, so the index arithmetic of every exact operation is bit-exact.
_MAX_PERIOD = math.isqrt(2**63 - 1)


class _NotAnInteger(TypeError, ValueError):
    """A non-integer where an integer is expected: both a TypeError and a ValueError, like io.UnsupportedOperation."""


def _index(value, name: str = "value") -> int:
    """operator.index that also refuses a bool, so a JSON true or false is not read as 1 or 0.

    Anything else that is not an integer raises _NotAnInteger, naming the parameter `name`.
    """
    if type(value) is int:  # the common case, without the calls below
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:  # a float, a string or a non-scalar array
            pass
    raise _NotAnInteger(f"{name} must be an integer, got {value!r}")


def _count(value, name: str) -> int:
    """An integer count of at least 1; a count below 1 raises ValueError."""
    value = _index(value, name)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


class PhasorVector:
    """A D-dimensional vector of unit-magnitude complex components.

    Construct with :meth:`exact` (integer phase indices mod a period) or
    :meth:`dense` (complex components). Equality is bitwise: two exact
    vectors are equal iff periods and index arrays match, two dense
    vectors iff their component arrays match exactly.
    """

    __slots__ = ("_indices", "_period", "_values")

    def __init__(self, indices, period, values):
        self._indices = indices
        self._period = period
        self._values = values

    @classmethod
    def exact(cls, indices, period: int) -> "PhasorVector":
        """Vector with component j at phase 2*pi*indices[j]/period.

        The only reducer of exact results: an operation passes its unreduced
        index sums or products, which fit int64 by the period limit. Raises
        ValueError unless the period is an integer (not a bool) with
        1 <= period <= _MAX_PERIOD and the indices have an integer dtype, so
        neither is truncated.
        """
        period = _index(period, "period")
        if not 1 <= period <= _MAX_PERIOD:
            raise ValueError(f"period must lie in [1, {_MAX_PERIOD}], got {period}")
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu":
            raise ValueError(f"phase indices must have an integer dtype, got {idx.dtype}")
        return cls(idx.astype(np.int64, copy=False) % period, period, None)

    @classmethod
    def dense(cls, values, validate: bool = True) -> "PhasorVector":
        """Vector from complex components, checked to unit magnitude."""
        vals = np.asarray(values, dtype=np.complex128)
        if validate:
            mags = np.abs(vals)
            # written so that a NaN magnitude, which compares False, fails it
            if mags.size and not (np.min(mags) >= 1.0 - _UNIT_TOL and np.max(mags) <= 1.0 + _UNIT_TOL):
                raise ValueError("dense phasor components must have unit magnitude")
        return cls(None, None, vals)

    @property
    def dim(self) -> int:
        return self._indices.shape[0] if self._indices is not None else self._values.shape[0]

    @property
    def is_exact(self) -> bool:
        return self._indices is not None

    @property
    def period(self) -> int:
        if not self.is_exact:
            raise AttributeError("dense vectors have no integer period")
        return self._period

    @property
    def indices(self) -> np.ndarray:
        if not self.is_exact:
            raise AttributeError("dense vectors have no phase indices")
        return self._indices

    @property
    def values(self) -> np.ndarray:
        """Complex components; computed from indices for exact vectors."""
        if self._values is None:
            angles = self._indices * (2.0 * np.pi / self._period)
            self._values = np.exp(1j * angles)
        return self._values

    def to_dense(self) -> "PhasorVector":
        return PhasorVector.dense(self.values, validate=False)

    def __eq__(self, other):
        if not isinstance(other, PhasorVector):
            return NotImplemented
        if self.is_exact and other.is_exact:
            return self._period == other._period and np.array_equal(self._indices, other._indices)
        if not self.is_exact and not other.is_exact:
            return np.array_equal(self._values, other._values)
        return False

    def __repr__(self):
        form = f"exact, period={self._period}" if self.is_exact else "dense"
        return f"PhasorVector(dim={self.dim}, {form})"


@dataclass(frozen=True, eq=False)
class ModulusBase:
    """Random base vector for one modulus: D phase indices u_j in Z_m.

    A base is its modulus and indices, and this is its only check: an integer
    modulus of at most _MAX_PERIOD and a non-empty 1-D integer array of indices
    in [0, modulus), whose length is D. Anything else raises ValueError. The
    base keeps its own read-only int64 copy of the indices.

    A base is also its modular codebook: entry r is z(r), the m-th roots of
    unity of index (u_j * r) mod m, so the base fixes every entry. A
    resonator step's summary is h, x summed per phase index, from which
    coefficients() gives the m inner products conj(Z) @ x = fft(h), and its
    cleanup is m * h[u]: O(D + m) time per step and O(D) memory, with the
    length-m DFT left to whoever reads a label.
    """

    modulus: int
    phase_indices: np.ndarray

    def __post_init__(self):
        m = _index(self.modulus, "modulus")
        if m > _MAX_PERIOD:
            raise ValueError(f"modulus {m} exceeds the exact period limit {_MAX_PERIOD}")
        idx = np.asarray(self.phase_indices)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError(f"phase indices must be a non-empty 1-D array, got shape {idx.shape}")
        if idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= m:
            raise ValueError(f"phase indices must be integers in [0, {m}), got dtype {idx.dtype}")
        # the base's own read-only copy: a system caches what it derives from
        # its bases, so neither the caller nor a reader may change them later
        idx = idx.astype(np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "phase_indices", idx)

    @property
    def dim(self) -> int:
        return self.phase_indices.shape[0]

    @property
    def n_entries(self) -> int:
        return self.modulus

    def _group_sum(self, x: np.ndarray) -> np.ndarray:
        """h: the components of x summed per phase index, each bin in index order from +0.0."""
        h = np.zeros(self.modulus, dtype=np.complex128)
        np.add.at(h, self.phase_indices, x)
        return h

    def coefficients(self, h: np.ndarray) -> np.ndarray:
        """conj(Z) @ x from a step's summary h: its length-m DFT."""
        return np.fft.fft(h)

    def project(self, x: np.ndarray) -> np.ndarray:
        """conj(Z) @ x: the inner product of every entry with x."""
        return self.coefficients(self._group_sum(x))

    def step(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the unit estimate g(m * h)[u] into out; return h."""
        h = self._group_sum(x)
        # g(m * h)[u] is g(h)[u]: g maps elementwise and the factor m moves no
        # phase. h is kept whole, since labels are read from it. u is in [0, m),
        # so mode="wrap" never wraps; unlike mode="raise" it writes into out
        # directly, not through a temporary
        _unit_into(h, np.empty_like(h)).take(self.phase_indices, out=out, mode="wrap")
        return h

    @cached_property
    def _roots(self) -> np.ndarray:
        # the m roots of unity, built on the first row lookup and not before:
        # a composed base's modulus can be in the millions
        return PhasorVector.exact(np.arange(self.modulus), self.modulus).values

    def row(self, i: int) -> np.ndarray:
        """Entry i, z(i), looked up in the m roots of unity: the same bits as encode_integer."""
        m = self.modulus
        # component j is root (u_j * i) mod m: permute the m roots, then
        # gather, so the index arithmetic is O(m) and the D-length work one lookup
        return self._roots[(np.arange(m) * (i % m)) % m][self.phase_indices]


def sample_base(m: int, D: int, seed: int, nonzero_only: bool = False) -> ModulusBase:
    """Draw D i.i.d. phase indices uniform over Z_m (or Z_m without 0).

    Deterministic for a fixed seed. Raises ValueError unless m and D are
    integers (not bools) with m >= 2 and D >= 1.
    """
    m, D = _index(m, "modulus"), _index(D, "D")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    rng = np.random.default_rng(seed)
    return ModulusBase(m, rng.integers(int(nonzero_only), m, size=D, dtype=np.int64))


def encode_integer(base: ModulusBase, x: int) -> PhasorVector:
    """z(x) = z^x in exact form: component j gets index (u_j * x) mod m.

    Periodic in x with period m, so x and x + m encode identically. x must
    be an integer (a Python or numpy int, not a bool); a float raises an
    error that is both a TypeError and a ValueError, rather than being truncated.
    """
    m = base.modulus
    # u * (x mod m) < m^2 fits int64 by the exact period limit, and exact() reduces it mod m
    return PhasorVector.exact(base.phase_indices * (_index(x, "x") % m), m)


def _rational_phases(base: ModulusBase, q: float) -> np.ndarray:
    """Phases of encode_rational(base, q): phi_j * fmod(q, m), phi_j = 2 pi u_j / m in (-pi, pi].

    The principal branch takes u_j - m for u_j > m/2. Integer encodings
    are indifferent to the representative, but fractional powers are not:
    the branch choice is what makes their similarity follow the sinc-comb
    kernel instead of a Dirichlet ripple.
    """
    u, m = base.phase_indices, base.modulus
    return np.where(u > m // 2, u - m, u) * (2.0 * np.pi / m) * math.fmod(float(q), m)


def encode_rational(base: ModulusBase, q: float) -> PhasorVector:
    """Dense encoding of a real/rational value: component j is e^{i phi_j q}.

    phi_j is the principal (-pi, pi] representative of the base phase,
    so the encoding agrees with :func:`encode_integer` at integers and
    interpolates the sinc-comb kernel in between. A system's encoding
    exponentiates these phases summed over its bases.
    """
    return PhasorVector.dense(np.exp(1j * _rational_phases(base, q)), validate=False)


def similarity(a: PhasorVector, b: PhasorVector) -> float:
    """(1/D) Re <a, conj(b)>, in [-1, 1]. Exactly 1.0 for identical exact vectors."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.is_exact and b.is_exact:
        L = math.lcm(a.period, b.period)
        delta = (a.indices * (L // a.period) - b.indices * (L // b.period)) % L
        return float(np.mean(np.cos(delta * (2.0 * np.pi / L))))
    return float(np.mean(np.real(a.values * np.conj(b.values))))


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a, b> / (|a| |b|) of two arrays, 0.0 when either is zero."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.real(np.vdot(a, b)) / (na * nb))


def hadamard(a: PhasorVector, b: PhasorVector) -> PhasorVector:
    """Componentwise product. Exact x exact stays exact with period lcm(L1, L2).

    Raises ValueError when lcm(L1, L2) exceeds _MAX_PERIOD.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.is_exact and b.is_exact:
        L = math.lcm(a.period, b.period)
        if L > _MAX_PERIOD:
            raise ValueError(f"combined period {L} exceeds the exact period limit {_MAX_PERIOD}")
        # each term is below L, so the sum is below 2L and fits int64
        return PhasorVector.exact(a.indices * (L // a.period) + b.indices * (L // b.period), L)
    return PhasorVector.dense(a.values * b.values, validate=False)


def conjugate(v: PhasorVector) -> PhasorVector:
    """Componentwise complex conjugate (phase negation)."""
    if v.is_exact:
        return PhasorVector.exact(-v.indices, v.period)
    return PhasorVector.dense(np.conj(v.values), validate=False)


def phase_normalize(v) -> PhasorVector:
    """Project complex components onto the unit circle, keeping phases.

    Zero components map to 1+0j so the output is always unit-magnitude.
    Accepts a PhasorVector or a raw complex array.
    """
    vals = v.values if isinstance(v, PhasorVector) else np.asarray(v, dtype=np.complex128)
    return PhasorVector.dense(_unit_into(vals, np.empty_like(vals)), validate=False)


def _unit_into(y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write y / |y| into out (which may be y) and return out; a zero or NaN component becomes 1+0j."""
    mags = np.abs(y)
    if mags.size and not mags.min() > 0.0:  # a zero (or NaN) magnitude
        unset = ~(mags > 0.0)
        mags[unset] = 1.0
        np.divide(y, mags, out=out)
        out[unset] = 1.0
        return out
    return np.divide(y, mags, out=out)


def add_phase_noise(v: PhasorVector, kappa: float, seed: int = 0) -> PhasorVector:
    """Perturb each phase by an i.i.d. von Mises(0, kappa) sample, drawn from seed.

    kappa = inf is the no-noise sentinel and returns the dense form of v
    unchanged. A negative or NaN kappa raises ValueError.
    """
    if not kappa >= 0:  # written so that a NaN, which compares False, fails it
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if math.isinf(kappa):
        return v.to_dense()
    rng = np.random.default_rng(seed)
    theta = rng.vonmises(0.0, kappa, size=v.dim)
    return PhasorVector.dense(v.values * np.exp(1j * theta), validate=False)


# --- serialization ------------------------------------------------------

_BASE_FORMAT = "residuehd/modulus-base"
_BASE_VERSION = 2


def base_to_dict(base: ModulusBase) -> dict:
    """The base's record (version 2): its modulus and phase indices."""
    return {"format": _BASE_FORMAT, "version": _BASE_VERSION,
            "modulus": base.modulus, "phase_indices": base.phase_indices.tolist()}


def base_from_dict(d: dict) -> ModulusBase:
    """Rebuild a base from its version-2 record; a malformed record raises ValueError.

    The modulus and indices must be JSON integers, not floats, strings or bools.
    A record of any other version, version 1 (which also held dim and seed) included,
    raises ValueError.
    """
    if not isinstance(d, dict) or d.get("format") != _BASE_FORMAT:
        raise ValueError("not a modulus-base record")
    version = d.get("version")
    if type(version) is not int or version != _BASE_VERSION:
        raise ValueError(f"unsupported modulus-base version: {version!r}")
    try:
        modulus, indices = d["modulus"], d["phase_indices"]
    except KeyError as exc:
        raise ValueError(f"modulus-base record lacks {exc}") from None
    if not isinstance(indices, list) or not all(type(v) is int for v in (modulus, *indices)):
        raise ValueError("modulus and phase indices must be JSON integers, not floats, strings or bools")
    return ModulusBase(modulus, indices)


def save_base(base: ModulusBase, path) -> None:
    Path(path).write_text(json.dumps(base_to_dict(base)), encoding="ascii")


def load_base(path) -> ModulusBase:
    return base_from_dict(json.loads(Path(path).read_text(encoding="ascii")))
