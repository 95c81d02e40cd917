"""Closed-form similarity kernels of modular phasor encodings.

In the infinite-dimensional limit the kernel of an encoding with phases
on the m-th roots of unity is a sinc comb, sum_s sinc(x - m s), which
collapses to a sum-free expression whose branch depends on the parity
of m:

    m even:  K_m(x) = (1/m) sin(pi x) cot(pi x / m)
    m odd:   K_m(x) = (1/m) sin(pi x) csc(pi x / m)

Both branches are m-periodic, even, equal 1 at x = 0 (mod m), and
vanish at every other integer. Composing moduli multiplies kernels.
At integer offsets the removable singularity at x = 0 (mod m) is the
only delicate point; evaluation here goes through normalized sinc
ratios, which are uniformly stable (naive cot/csc would overflow).
"""

from __future__ import annotations

import csv
from typing import Sequence

import numpy as np

from .phasor import _index, similarity
from .residue import ResidueSystem

__all__ = [
    "analytic_kernel",
    "empirical_kernel",
    "product_kernel",
    "write_curve_csv",
]


def analytic_kernel(m: int, dx):
    """Closed-form kernel K_m at offset dx (scalar or array).

    Returns exactly 1.0 at dx = 0 (mod m) and exactly 0.0 at all other
    integer offsets. m must be an integer.
    """
    m = _index(m, "modulus")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    dx = np.asarray(dx, dtype=float)
    # reduce to the principal period [-m/2, m/2]; both branches are m-periodic
    t = dx - m * np.round(dx / m)
    # sin(pi t) / (m sin(pi t/m)) written as a stable sinc ratio;
    # |t/m| <= 1/2 keeps the denominator away from zero
    ratio = np.sinc(t) / np.sinc(t / m)
    if m % 2 == 0:
        out = ratio * np.cos(np.pi * t / m)
    else:
        out = ratio
    # integer offsets are exact: 1 at multiples of m, 0 at the rest
    out = np.where(t == np.round(t), np.where(t == 0.0, 1.0, 0.0), out)
    return float(out) if out.ndim == 0 else out


def product_kernel(moduli: Sequence[int], dx):
    """Kernel of a composed residue encoding: prod_k K_{m_k}(dx); K_m(dx) for one modulus m."""
    out = None
    for m in moduli:
        k = np.asarray(analytic_kernel(m, dx))
        out = k if out is None else out * k
    return float(out) if out.ndim == 0 else out


def empirical_kernel(sys: ResidueSystem, dx_grid) -> np.ndarray:
    """Measured similarity(z(0), z(dx)) of a residue system per grid point.

    The kernel of one base is that of the one-base system
    ResidueSystem([base]), whose analytic partner is
    product_kernel(sys.moduli, dx) = analytic_kernel(m, dx). Encodings go
    through the public rational-encoding path so the estimate exercises
    the same code every consumer uses.
    """
    origin = sys.encode_rational(0.0)
    return np.array([similarity(origin, sys.encode_rational(float(dx))) for dx in np.asarray(dx_grid, dtype=float)])


def write_curve_csv(path, dx, empirical, analytic) -> float:
    """CSV with header dx,empirical,analytic,abs_error (repr floats, '.' decimal).

    abs_error is |empirical - analytic| per row; returns its largest value.
    Raises ValueError, before the file is opened, unless the three columns
    are one-dimensional and of one length.
    """
    columns = [np.asarray(c, dtype=float) for c in (dx, empirical, analytic)]
    if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
        raise ValueError(f"dx, empirical and analytic must be 1-D columns of one length, "
                         f"got shapes {[c.shape for c in columns]}")
    dx, emp, ana = columns
    err = np.abs(emp - ana)
    with open(path, "w", newline="", encoding="ascii") as fh:
        w = csv.writer(fh)
        w.writerow(["dx", "empirical", "analytic", "abs_error"])
        for row in zip(dx, emp, ana, err):
            w.writerow([repr(float(v)) for v in row])
    return float(err.max(initial=0.0))
