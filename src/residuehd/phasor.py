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
    "NoiseModel",
    "sample_base",
    "encode_integer",
    "encode_rational",
    "similarity",
    "hadamard",
    "conjugate",
    "phase_normalize",
    "add_phase_noise",
    "identity_vector",
    "base_to_dict",
    "base_from_dict",
    "save_base",
    "load_base",
]

_UNIT_TOL = 1e-9
# Largest exact period: the sum or product of two indices below it fits in
# int64, so the index arithmetic of every exact operation is bit-exact.
_MAX_PERIOD = math.isqrt(2**63 - 1)


def _index(value) -> int:
    """operator.index that also refuses a bool, so a JSON true or false is not read as 1 or 0."""
    if type(value) is int:  # the common case, without the two calls below
        return value
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got the bool {value}")
    return operator.index(value)


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
        ValueError unless 1 <= period <= _MAX_PERIOD.
        """
        if not 1 <= period <= _MAX_PERIOD:
            raise ValueError(f"period must lie in [1, {_MAX_PERIOD}], got {period}")
        idx = np.asarray(indices, dtype=np.int64) % period
        return cls(idx, int(period), None)

    @classmethod
    def dense(cls, values, validate: bool = True) -> "PhasorVector":
        """Vector from complex components, checked to unit magnitude."""
        vals = np.asarray(values, dtype=np.complex128)
        if validate:
            mags = np.abs(vals)
            if mags.size and (np.min(mags) < 1.0 - _UNIT_TOL or np.max(mags) > 1.0 + _UNIT_TOL):
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
    resonator step's summary is h = bincount(u, x, m), from which
    coefficients() gives the m inner products conj(Z) @ x = fft(h), and its
    cleanup is m * h[u]: O(D + m) time per step and O(D) memory, with the
    length-m DFT left to whoever reads a label.
    """

    modulus: int
    phase_indices: np.ndarray

    def __post_init__(self):
        try:
            m = _index(self.modulus)
        except TypeError:
            raise ValueError(f"modulus must be an integer, got {self.modulus!r}") from None
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
        # x viewed as float64 pairs puts Re x_j at 2j and Im x_j at 2j + 1, so
        # bins 2u and 2u + 1 sum the real and imaginary parts in one bincount,
        # each bin in the same order as a bincount per part
        object.__setattr__(self, "_interleaved", np.stack([2 * idx, 2 * idx + 1], axis=1).ravel())

    @property
    def dim(self) -> int:
        return self.phase_indices.shape[0]

    @property
    def n_entries(self) -> int:
        return self.modulus

    @property
    def matrix(self) -> np.ndarray:
        """The dense rows, built on each request and not kept: a reference for tests."""
        # written in place: a list of m rows would double the peak memory
        rows = np.empty((self.modulus, self.dim), dtype=np.complex128)
        for r in range(self.modulus):
            rows[r] = self.row(r)
        return rows

    def _group_sum(self, x: np.ndarray) -> np.ndarray:
        """h = bincount(u, x, m): the components of x summed per phase index."""
        # a real or strided x would be misread through the float64 view
        x = np.ascontiguousarray(x, dtype=np.complex128)
        return np.bincount(self._interleaved, x.view(np.float64), 2 * self.modulus).view(np.complex128)

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


@dataclass(frozen=True)
class NoiseModel:
    """Von Mises phase noise with concentration kappa (inf = no noise); NaN is rejected."""

    kappa: float
    seed: int = 0

    def __post_init__(self):
        if not self.kappa >= 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")


def sample_base(m: int, D: int, seed: int, nonzero_only: bool = False) -> ModulusBase:
    """Draw D i.i.d. phase indices uniform over Z_m (or Z_m without 0).

    Deterministic for a fixed seed. Raises ValueError unless m and D are
    integers (not bools) with m >= 2 and D >= 1.
    """
    try:
        m, D = _index(m), _index(D)
    except TypeError as exc:
        raise ValueError(f"modulus and D must be integers: {exc}") from None
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    rng = np.random.default_rng(seed)
    return ModulusBase(m, rng.integers(int(nonzero_only), m, size=D, dtype=np.int64))


def identity_vector(D: int) -> PhasorVector:
    """The all-ones vector (phase 0 everywhere), exact with period 1."""
    return PhasorVector.exact(np.zeros(D, dtype=np.int64), 1)


def encode_integer(base: ModulusBase, x: int) -> PhasorVector:
    """z(x) = z^x in exact form: component j gets index (u_j * x) mod m.

    Periodic in x with period m, so x and x + m encode identically. x must
    be an integer (a Python or numpy int, not a bool); a float raises
    TypeError rather than being truncated.
    """
    m = base.modulus
    # u * (x mod m) < m^2 fits int64 by the exact period limit, and exact() reduces it mod m
    return PhasorVector.exact(base.phase_indices * (_index(x) % m), m)


def centered_indices(base: ModulusBase) -> np.ndarray:
    """Phase indices mapped to the principal branch: u - m for u > m/2.

    The resulting phases lie in (-pi, pi]. Integer encodings are
    indifferent to the representative, but fractional powers are not:
    the branch choice is what makes their similarity follow the
    sinc-comb kernel instead of a Dirichlet ripple.
    """
    u = base.phase_indices
    return np.where(u > base.modulus // 2, u - base.modulus, u)


def encode_rational(base: ModulusBase, q: float) -> PhasorVector:
    """Dense encoding of a real/rational value: component j is e^{i phi_j q}.

    phi_j is the principal (-pi, pi] representative of the base phase,
    so the encoding agrees with :func:`encode_integer` at integers and
    interpolates the sinc-comb kernel in between.
    """
    q_red = math.fmod(float(q), base.modulus)
    angles = centered_indices(base) * (2.0 * np.pi / base.modulus) * q_red
    return PhasorVector.dense(np.exp(1j * angles), validate=False)


def similarity(a: PhasorVector, b: PhasorVector) -> float:
    """(1/D) Re <a, conj(b)>, in [-1, 1]. Exactly 1.0 for identical exact vectors."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.is_exact and b.is_exact:
        L = math.lcm(a.period, b.period)
        delta = (a.indices * (L // a.period) - b.indices * (L // b.period)) % L
        return float(np.mean(np.cos(delta * (2.0 * np.pi / L))))
    return float(np.mean(np.real(a.values * np.conj(b.values))))


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


def add_phase_noise(v: PhasorVector, noise: NoiseModel) -> PhasorVector:
    """Perturb each phase by an i.i.d. von Mises(0, kappa) sample.

    kappa = inf is the no-noise sentinel and returns the dense form of v
    unchanged.
    """
    if math.isinf(noise.kappa):
        return v.to_dense()
    rng = np.random.default_rng(noise.seed)
    theta = rng.vonmises(0.0, noise.kappa, size=v.dim)
    return PhasorVector.dense(v.values * np.exp(1j * theta), validate=False)


# --- serialization ------------------------------------------------------

_BASE_FORMAT = "residuehd/modulus-base"
_BASE_VERSION = 2


def base_to_dict(base: ModulusBase) -> dict:
    """The base's record (version 2): its modulus and phase indices."""
    return {"format": _BASE_FORMAT, "version": _BASE_VERSION,
            "modulus": base.modulus, "phase_indices": base.phase_indices.tolist()}


def base_from_dict(d: dict) -> ModulusBase:
    """Rebuild a base from a version-2 or -1 record; a malformed record raises ValueError.

    The modulus and indices must be JSON integers, not floats, strings or bools. A
    version-1 record's `dim` must match the indices; its seed and `nonzero_only` are ignored.
    """
    if not isinstance(d, dict) or d.get("format") != _BASE_FORMAT:
        raise ValueError("not a modulus-base record")
    version = d.get("version")
    if type(version) is not int or not 1 <= version <= _BASE_VERSION:
        raise ValueError(f"unsupported modulus-base version: {version!r}")
    keys = ("modulus", "phase_indices", "dim") if version == 1 else ("modulus", "phase_indices")
    try:
        modulus, indices, *dim = (d[k] for k in keys)
    except KeyError as exc:
        raise ValueError(f"modulus-base record lacks {exc}") from None
    if not isinstance(indices, list) or not all(type(v) is int for v in (modulus, *dim, *indices)):
        raise ValueError("modulus, dim and phase indices must be JSON integers, not floats, strings or bools")
    base = ModulusBase(modulus, indices)
    if dim and dim[0] != base.dim:
        raise ValueError(f"record dim {dim[0]} disagrees with its {base.dim} phase indices")
    return base


def save_base(base: ModulusBase, path) -> None:
    Path(path).write_text(json.dumps(base_to_dict(base)), encoding="ascii")


def load_base(path) -> ModulusBase:
    return base_from_dict(json.loads(Path(path).read_text(encoding="ascii")))
