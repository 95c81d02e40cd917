"""Definitional references the tests compare the library against.

The library's sweep keeps one running unbound product and its modular
codebooks never build dense rows; these helpers do both the plain way:
the per-factor unbinding, the stepwise update it feeds, and the dense
rows of a base or of a full residue codebook.
"""

import numpy as np

from residuehd.phasor import PhasorVector
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
