"""Multi-dimensional encodings: Cartesian Z^n products and hexagonal frames.

A low-dimensional integer vector is encoded as the Hadamard product of
independent per-axis encodings, z(x) = z_1(x_1) (.) ... (.) z_n(x_n),
so vector addition is still componentwise binding.

The hexagonal variant first projects the plane into three coordinates
along unit vectors 120 degrees apart (the Mercedes-Benz frame):

    Psi = [[-sqrt(3)/2, -1/2],
           [ sqrt(3)/2, -1/2],
           [ 0,          1  ]]

and encodes y = Psi x with one base triplet per modulus whose three
phase indices sum to 0 (mod m) in every component. That constraint
makes z([1,1,1]) = z([0,0,0]), so moving equally along all three
directions cancels and every negative coordinate has a non-negative
equivalent. A hexagonal code with modulus m spans 3m^2 - 3m + 1
distinct states from 3m codebook vectors; a square code spans m^2
states from 2m vectors.
"""

from __future__ import annotations

import csv
import math
import operator
from typing import Sequence

import numpy as np

from .phasor import ModulusBase, PhasorVector, _count, _rational_phases, hadamard, sample_base, similarity
from .residue import ResidueSystem, _child_seeds, crt_reconstruct
from .resonator import ResonatorConfig, resonator_factorize

__all__ = [
    "PSI",
    "hex_project",
    "encode_cartesian",
    "sample_hex_base",
    "HexSystem",
    "hex_state_count",
    "square_state_count",
    "code_entropy",
    "write_hex_heatmap_csv",
]

PSI = np.array(
    [
        [-math.sqrt(3.0) / 2.0, -0.5],
        [math.sqrt(3.0) / 2.0, -0.5],
        [0.0, 1.0],
    ]
)


def hex_project(x) -> np.ndarray:
    """y = Psi x: plane point to three-coordinate frame (rows sum to zero)."""
    return PSI @ np.asarray(x, dtype=float)


def encode_cartesian(axis_systems: Sequence[ResidueSystem], x: Sequence[int]) -> PhasorVector:
    """Hadamard product of independent per-axis residue encodings of integer coordinates."""
    if len(axis_systems) != len(x):
        raise ValueError("one coordinate per axis system required")
    out = None
    for sys_i, x_i in zip(axis_systems, x):
        enc = sys_i.encode(x_i)
        out = enc if out is None else hadamard(out, enc)
    return out


def sample_hex_base(m: int, D: int, seed: int) -> tuple[ModulusBase, ModulusBase, ModulusBase]:
    """Base triplet with per-component index sums of 0 (mod m).

    The first two direction bases are i.i.d. uniform; the third is the
    negated sum, which leaves every marginal uniform over Z_m.
    """
    s1, s2 = _child_seeds(seed, (), 2)
    b1 = sample_base(m, D, s1)
    b2 = sample_base(m, D, s2)
    u3 = (-(b1.phase_indices + b2.phase_indices)) % m
    return b1, b2, ModulusBase(m, u3)


class HexSystem:
    """Hexagonal residue code: one constrained base triplet per modulus.

    Direction d is a ResidueSystem over the moduli holding base d of every
    triplet, so a 3-coordinate encodes as the Cartesian product of the
    three directions; the moduli and D are read from direction 0. `moduli`
    is one integer (a Python or numpy int) or an iterable of them.
    """

    __slots__ = ("directions",)

    def __init__(self, moduli, D: int, seed: int):
        try:
            moduli = (operator.index(moduli),)
        except TypeError:
            pass  # an iterable of moduli
        triplets = [sample_hex_base(m, D, _child_seeds(seed, (k,))[0]) for k, m in enumerate(moduli)]
        self.directions = tuple(ResidueSystem(t[d] for t in triplets) for d in range(3))

    @property
    def moduli(self) -> tuple[int, ...]:
        return self.directions[0].moduli

    @property
    def dim(self) -> int:
        return self.directions[0].dim

    @property
    def range_M(self) -> int:
        return self.directions[0].range_M

    def encode(self, y3: Sequence[int]) -> PhasorVector:
        """Exact encoding of an integer 3-coordinate; invariant under +(1,1,1).

        Raises ValueError when M exceeds the exact period limit.
        """
        return encode_cartesian(self.directions, y3)

    def decode(self, v, config=None):
        """Recover a canonical 3-coordinate from an encoding.

        Returns (y, state); inspect state.converged before trusting y.
        Decoding for the hexagonal frame is our own construction: run
        a resonator over the per-direction integer codebooks and
        CRT-combine each direction's labels into y. Each modulus admits
        its own diagonal shift, so y is known only up to a shift of
        (1,1,1); the class representative returned is the one with the
        smallest maximum coordinate (ties lexicographic). Shifting down
        until a coordinate reaches 0 lowers the maximum, so it is one
        of the three shifts that zero a coordinate.
        """
        # modulus-major: the three direction bases of modulus k sit at 3k, 3k+1, 3k+2
        books = [b for triplet in zip(*(d.bases for d in self.directions)) for b in triplet]
        state = resonator_factorize(v, books, config or ResonatorConfig(max_iters=30, max_restarts=5))
        M = self.range_M
        y = [crt_reconstruct(state.labels[d::3], self.moduli) for d in range(3)]
        return min((tuple((c - s) % M for c in y) for s in y), key=lambda c: (max(c), c)), state

    def encode_continuous(self, xy) -> PhasorVector:
        """Dense encoding of a plane point without rounding (for kernel maps).

        Its phases are those of encode_rational(b, y_d), summed over every
        base b of every direction d, so the map interpolates the hexagonal
        kernel between lattice points; the sum is exponentiated once.
        """
        y = hex_project(xy)
        phase = sum(_rational_phases(b, y_d) for d, y_d in zip(self.directions, y) for b in d.bases)
        return PhasorVector.dense(np.exp(1j * phase), validate=False)

    def __repr__(self):
        return f"HexSystem(moduli={self.moduli}, D={self.dim})"


def hex_state_count(m: int) -> int:
    """Distinct states of a hexagonal code with modulus m: 3m^2 - 3m + 1."""
    m = _count(m, "modulus")
    return 3 * m * m - 3 * m + 1


def square_state_count(m: int) -> int:
    """Distinct states of a square code with modulus m per axis."""
    m = _count(m, "modulus")
    return m * m


def code_entropy(states: int) -> float:
    """Shannon entropy in bits of a uniform code over `states` states."""
    return math.log2(_count(states, "states"))


def write_hex_heatmap_csv(path, hexsys: HexSystem, xs, ys) -> None:
    """Similarity of every grid point against the origin, as x,y,similarity rows."""
    origin = hexsys.encode_continuous((0.0, 0.0))
    with open(path, "w", newline="", encoding="ascii") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "similarity"])
        for yv in ys:
            for xv in xs:
                s = similarity(origin, hexsys.encode_continuous((float(xv), float(yv))))
                w.writerow([repr(float(xv)), repr(float(yv)), repr(s)])
