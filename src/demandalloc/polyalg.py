"""Polynomial algebra for demand transfer functions.

Demand filters are finite real-coefficient polynomials in the backshift
variable z.  The forecastability of a filtered demand stream is governed by
the split of the polynomial's roots across the unit circle: roots on or
outside the circle stay in the minimum-phase (outer) part, roots strictly
inside are reflected into an all-pass Blaschke (inner) part.  The constant
term of the outer part is the one-step root mean squared forecast error of
the stream, which is what everything downstream consumes.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# Trailing coefficients at or below this fraction of the largest magnitude
# are noise from round-trip multiplication, not structure (trim_trailing).
TRIM_TOL = 1e-12

DEFAULT_BOUNDARY_TOL = 1e-9

# Conjugate residue allowed when collapsing a complex root product back to
# real coefficients, relative to the coefficient scale.
CONJUGATE_TOL = 1e-9


class ZeroPolynomial(ValueError):
    """Operation undefined for the identically zero polynomial."""


class NumericalInstability(ArithmeticError):
    """Conjugate pairing left an imaginary residue too large to discard."""


def trim_trailing(c: np.ndarray) -> np.ndarray:
    """The rows of c, one polynomial each, with their trailing coefficients
    up to TRIM_TOL times the row's largest in magnitude set to exact zeros,
    then the columns zero in every row dropped; the first column stays, so
    the zero polynomial trims to [0.0]."""
    big = np.abs(c) > TRIM_TOL * np.abs(c).max(axis=1, keepdims=True)
    big[:, 0] = True
    keep = np.logical_or.accumulate(big[:, ::-1], axis=1)[:, ::-1]
    return np.where(keep, c, 0.0).compress(keep.any(axis=0), axis=1)


class TransferPoly:
    """Real polynomial c_0 + c_1 z + ... + c_q z^q, low-order first.

    Trailing coefficients are trimmed on construction (trim_trailing), so
    degrees stay stable under repeated multiplication whatever the scale.
    The zero polynomial is representable (single zero coefficient) but most
    operations reject it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d real sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        self.coeffs = trim_trailing(c[None])[0]
        self.coeffs.flags.writeable = False

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0.0

    def __repr__(self) -> str:
        body = ", ".join(f"{c:g}" for c in self.coeffs)
        return f"TransferPoly(({body}))"


@dataclass(frozen=True)
class Factorization:
    """Inner-outer split of a transfer polynomial, from one root split.

    roots are all roots of the input with multiplicity (none at degree 0).
    outer carries the full spectrum (same modulus on the unit circle as the
    input); inner_roots are the reflected roots, all strictly inside the
    unit disk and closed under conjugation.  The input equals outer(z) times
    the Blaschke factor prod (z - a)/(1 - conj(a) z) over inner_roots.
    root_msfe is |outer(0)|, computed as in root_msfe.
    """

    roots: tuple
    outer: TransferPoly
    inner_roots: tuple
    root_msfe: float

    @property
    def invertible(self) -> bool:
        """True iff no root lies strictly inside the unit disk."""
        return self.inner_roots == ()


def as_poly(p) -> TransferPoly:
    return p if isinstance(p, TransferPoly) else TransferPoly(p)


def _newton_polish(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Two Newton steps per eigenvalue root more than 1e-3 max(1, |r|) from
    every other root; keeps only improvements.  Newton would move the copies
    of a repeated root unevenly, so they keep their eigenvalues."""
    polyval = np.polynomial.polynomial.polyval
    deriv = np.polynomial.polynomial.polyder(coeffs)
    out = roots.astype(complex)
    gap = np.abs(out[:, None] - out)
    np.fill_diagonal(gap, np.inf)
    isolated = gap.min(axis=1) > 1e-3 * np.maximum(1.0, np.abs(out))
    # f / fp overflows where fp is tiny against f; a non-finite step never
    # counts as an improvement
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            f, fp = polyval(out, coeffs), polyval(out, deriv)
            ok = np.abs(fp) > 0
            step = np.where(ok, f / np.where(ok, fp, 1.0), 0.0)
            cand = out - step
            better = np.isfinite(cand) & (np.abs(polyval(cand, coeffs)) <= np.abs(f))
            out = np.where(better & isolated, cand, out)
    return out


def poly_roots(p: TransferPoly):
    """All degree-many roots of p, with multiplicity (an empty complex array
    at degree 0).

    Companion-matrix eigenvalues (numpy applies balancing) followed by a
    short Newton polish of the isolated ones.  Roots come back sorted by
    (real, imag) so repeated calls are deterministic.
    """
    p = as_poly(p)
    if p.degree == 0:
        return np.empty(0, dtype=complex)
    raw = np.roots(p.coeffs[::-1])
    polished = _newton_polish(p.coeffs, raw)
    order = np.lexsort((polished.imag, polished.real))
    return polished[order]


def _expand_outer(lead: float, outside: np.ndarray, inside: np.ndarray) -> TransferPoly:
    """Expand lead * prod (z - a_out) * prod (1 - conj(a_in) z) to real coeffs."""
    acc = np.array([lead], dtype=complex)
    for a in outside:
        acc = np.convolve(acc, np.array([-a, 1.0], dtype=complex))
    for a in inside:
        acc = np.convolve(acc, np.array([1.0, -np.conj(a)], dtype=complex))
    scale = max(1.0, float(np.max(np.abs(acc.real))))
    residue = float(np.max(np.abs(acc.imag)))
    if residue > CONJUGATE_TOL * scale:
        raise NumericalInstability(
            f"imaginary residue {residue:.3e} after conjugate pairing "
            f"(scale {scale:.3e}); root set is not conjugate-closed enough"
        )
    return TransferPoly(acc.real)


def is_boundary_tol(value) -> bool:
    """Whether value can serve as a boundary tolerance.  Root moduli below
    1 - tol count as inside the unit disk, so a tol outside [0, 1), or NaN,
    would misclassify roots."""
    return 0.0 <= value < 1.0


def _root_split(p: TransferPoly, boundary_tol: float):
    """Roots of p, the mask of those on the outer side,
    modulus at least 1 - boundary_tol, and the root MSFE they give.  The one
    place roots are classified.  The root MSFE |c_q| prod |outer roots| is
    |c_m| / prod |inner roots| by Jensen's formula, c_m the first nonzero
    coefficient and the m roots at 0 of z^m (all-pass) left out: |p(0)|
    exactly when p is invertible, with no root's rounding in it."""
    if not is_boundary_tol(boundary_tol):
        raise ValueError(f"boundary_tol must be a number in [0, 1), got {boundary_tol!r}")
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has no root split")
    roots = poly_roots(p)
    moduli = np.abs(roots)
    outer = moduli >= 1.0 - boundary_tol
    m = int(np.flatnonzero(p.coeffs)[0])
    # the m roots of z^m are exact zeros, the smallest inner moduli; where
    # the other inner moduli's product underflows, |c_q| prod |outer roots|
    inner = np.prod(np.sort(moduli[~outer])[m:])
    with np.errstate(over="ignore"):
        msfe = float(abs(p.coeffs[m]) / inner if inner
                     else abs(p.coeffs[-1]) * np.prod(moduli[outer]))
    return roots, outer, msfe


def inner_outer_factor(p: TransferPoly, boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> Factorization:
    """Split p into an outer polynomial and reflected inner roots.

    Roots with modulus below 1 - boundary_tol are reflected: the outer part
    gains the factor (1 - conj(a) z) and the root joins inner_roots.  Roots
    in the band [1 - boundary_tol, 1) are treated as boundary cases and kept
    on the outer side; a warning flags them because invertibility claims
    degrade there.
    """
    p = as_poly(p)
    roots, outer, msfe = _root_split(p, boundary_tol)
    if np.any(np.abs(np.abs(roots) - 1.0) <= boundary_tol):
        warnings.warn(
            "root within boundary_tol of the unit circle; classified as "
            "outer-side but invertibility is numerically marginal",
            RuntimeWarning,
            stacklevel=2,
        )
    inside = roots[~outer]
    return Factorization(roots=tuple(roots),
                         outer=_expand_outer(float(p.coeffs[-1]), roots[outer], inside),
                         inner_roots=tuple(inside), root_msfe=msfe)


def root_msfe(p: TransferPoly, boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> float:
    """One-step root MSFE of the stream filtered by p: |outer(0)|.

    Equals |c_q| * prod of |a_j| over roots on the outer side, so it never
    drops below |p(0)| and matches |p(0)| exactly when p is invertible.
    """
    return _root_split(as_poly(p), boundary_tol)[2]


def is_invertible(p: TransferPoly, boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> bool:
    """True iff p has no root strictly inside the unit disk (outer filter)."""
    return bool(np.all(_root_split(as_poly(p), boundary_tol)[1]))


def variance(p: TransferPoly) -> float:
    """Stationary variance of the filtered stream under unit-variance shocks."""
    c = as_poly(p).coeffs
    return float(np.dot(c, c))
