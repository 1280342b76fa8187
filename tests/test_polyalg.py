"""Polynomial algebra and inner-outer factorization.

Golden root sets and MSFE values below were produced by the mpmath oracle in
oracles.py (python3 tests/oracles.py) at 50 digits and frozen here; the
innovations recursion provides a second, root-free route to the same MSFE.
"""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demandalloc.demand import DemandModel
from demandalloc.policy import neutral_policy, seller_filters, sigma_lower_bound
from demandalloc.polyalg import (TransferPoly, ZeroPolynomial,
                                 inner_outer_factor, is_invertible,
                                 poly_roots, root_msfe, variance)
from oracles import (innovations_msfe_oracle, jensen_root_msfe, lagged_variant,
                     mp_root_msfe, mp_roots)

polyval = np.polynomial.polynomial.polyval

# Frozen by tests/oracles.py (mpmath, 50 digits).
GOLDEN = {
    (0.5, -0.2, -0.48): {
        "roots": [(-1.25, 0.0), (0.833333333333, 0.0)],
        "msfe": 0.6,
        "variance": 0.5204,
        "invertible": False,
    },
    (0.5, 1.0, 0.48): {
        "roots": [(-1.25, 0.0), (-0.833333333333, 0.0)],
        "msfe": 0.6,
        "variance": 1.4804,
        "invertible": False,
    },
    (0.2, 0.85): {
        "roots": [(-0.235294117647, 0.0)],
        "msfe": 0.85,
        "variance": 0.7625,
        "invertible": False,
    },
    (0.8, -0.35): {
        "roots": [(2.285714285714, 0.0)],
        "msfe": 0.8,
        "variance": 0.7625,
        "invertible": True,
    },
    (1.0, -0.6, 0.58): {
        "roots": [(0.51724137931, -1.206896551724), (0.51724137931, 1.206896551724)],
        "msfe": 1.0,
        "variance": 1.6964,
        "invertible": True,
    },
}


def coeffs_strategy(max_degree=6):
    return st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=2, max_size=max_degree + 1,
    ).filter(lambda c: abs(c[0]) > 0.05 and abs(c[-1]) > 0.05)


def poly_from_roots(rng, n_real, n_pairs, lead):
    """Real polynomial with the given counts of real roots and conjugate
    pairs, moduli bounded away from the unit circle on both sides."""
    def modulus():
        return rng.uniform(0.2, 0.8) if rng.random() < 0.5 else rng.uniform(1.25, 5.0)

    roots = []
    for _ in range(n_real):
        roots.append(modulus() * rng.choice([-1.0, 1.0]))
    for _ in range(n_pairs):
        m = modulus()
        ang = rng.uniform(0.15, np.pi - 0.15)
        roots += [m * np.exp(1j * ang), m * np.exp(-1j * ang)]
    return TransferPoly(lead * np.poly(roots)[::-1].real)


def assert_same_roots(got, want, atol, rtol):
    """got and want hold the same roots, with multiplicity.  Each wanted root
    is paired with its nearest unpaired computed one: sorted by (real, imag),
    the copies of a repeated root can interleave, since their real parts
    differ only by rounding noise of either sign."""
    left = list(got)
    assert len(left) == len(want)
    for w in want:
        g = left.pop(int(np.argmin([abs(g - w) for g in left])))
        assert np.isclose(g, w, atol=atol, rtol=rtol), (got, want)


class TestTransferPoly:
    def test_trailing_trim(self):
        p = TransferPoly([1.0, 2.0, 1e-15, 1e-14])
        assert p.degree == 1
        assert np.array_equal(p.coeffs, [1.0, 2.0])

    @pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e-13, 1.0, 1e13, 1e100, 1e200])
    def test_trim_is_relative_to_the_largest_coefficient(self, scale):
        # a tail negligible against the largest coefficient goes at any scale;
        # a coefficient that is small only in absolute terms stays
        p = TransferPoly(scale * np.array([1.0, 2.0, 1e-15, 1e-14, 0.0]))
        assert p.coeffs.tolist() == (scale * np.array([1.0, 2.0])).tolist()
        assert TransferPoly([scale, 5.0 * scale]).degree == 1

    def test_zero_poly_representable(self):
        p = TransferPoly([0.0])
        assert p.is_zero() and p.degree == 0
        assert TransferPoly([0.0, 0.0, -0.0]).coeffs.tolist() == [0.0]

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            TransferPoly([])
        with pytest.raises(ValueError):
            TransferPoly([1.0, float("nan")])

    def test_coeffs_immutable(self):
        p = TransferPoly([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0


class TestRoots:
    @pytest.mark.parametrize("coeffs", sorted(GOLDEN))
    def test_golden_roots(self, coeffs):
        got = poly_roots(TransferPoly(coeffs))
        want = GOLDEN[coeffs]["roots"]
        assert len(got) == len(want)
        for g, (re, im) in zip(got, want):
            assert g.real == pytest.approx(re, abs=1e-8)
            assert g.imag == pytest.approx(im, abs=1e-8)

    def test_degree5_against_mpmath(self):
        coeffs = [1.2, -0.3, 0.4, 0.15, -0.22, 0.31]
        got = poly_roots(TransferPoly(coeffs))
        want = mp_roots(coeffs)
        assert np.allclose(got, want, atol=1e-10)

    def test_root_residuals_small(self):
        p = TransferPoly([1.2, -0.3, 0.4, 0.15, -0.22, 0.31])
        for r in poly_roots(p):
            assert abs(polyval(r, p.coeffs)) <= 1e-8 * np.max(np.abs(p.coeffs))

    def test_deterministic_order(self):
        p = TransferPoly([1.0, -0.6, 0.58])
        first = poly_roots(p)
        second = poly_roots(p)
        assert np.array_equal(first, second)

    def test_degree0_has_no_roots(self):
        roots = poly_roots(TransferPoly([2.0]))
        assert roots.shape == (0,) and roots.dtype == complex

    def test_overflowing_newton_step_is_not_taken(self):
        # at the root 0 of z (z + 5e-324), f / f' overflows; the roots stay
        # the eigenvalues, and numpy's overflow warning would be an error
        roots = poly_roots(TransferPoly([0.0, 5e-324, 1.0]))
        assert roots.tolist() == [-5e-324 + 0j, 0j]

    @given(coeffs_strategy())
    @example(coeffs=[-1.0, 0.0, -2.0, 0.0, -1.0])  # -(1 + z^2)^2: +-i twice
    @settings(max_examples=60, deadline=None)
    def test_random_roots_match_oracle(self, coeffs):
        got = poly_roots(TransferPoly(coeffs))
        want = mp_roots(coeffs)
        if len(got) != len(want):
            return  # trailing trim changed the degree; nothing to compare
        assert_same_roots(got, want, atol=1e-7, rtol=1e-7)


class TestFactorization:
    @pytest.mark.parametrize("coeffs", sorted(GOLDEN))
    def test_golden_msfe(self, coeffs):
        assert root_msfe(TransferPoly(coeffs)) == pytest.approx(
            GOLDEN[coeffs]["msfe"], abs=1e-10)

    @pytest.mark.parametrize("coeffs", sorted(GOLDEN))
    def test_golden_variance(self, coeffs):
        assert variance(TransferPoly(coeffs)) == pytest.approx(
            GOLDEN[coeffs]["variance"], abs=1e-12)

    @pytest.mark.parametrize("coeffs", sorted(GOLDEN))
    def test_golden_invertibility(self, coeffs):
        assert is_invertible(TransferPoly(coeffs)) == GOLDEN[coeffs]["invertible"]

    def test_msfe_squared_matches_forecast_error_variance(self):
        # Two-seller reference cases: squared one-step errors 0.36 / 0.7225 / 0.64.
        assert root_msfe(TransferPoly([0.5, -0.2, -0.48])) ** 2 == pytest.approx(0.36, abs=1e-4)
        assert root_msfe(TransferPoly([0.5, 1.0, 0.48])) ** 2 == pytest.approx(0.36, abs=1e-4)
        assert root_msfe(TransferPoly([0.2, 0.85])) ** 2 == pytest.approx(0.7225, abs=1e-4)
        assert root_msfe(TransferPoly([0.8, -0.35])) ** 2 == pytest.approx(0.64, abs=1e-4)

    def test_inner_roots_strictly_inside(self):
        fact = inner_outer_factor(TransferPoly([0.5, 1.0, 0.48]))
        assert all(abs(r) < 1.0 for r in fact.inner_roots)

    def test_outer_roots_not_inside(self):
        fact = inner_outer_factor(TransferPoly([0.5, 1.0, 0.48]))
        assert min(abs(r) for r in poly_roots(fact.outer)) >= 1.0 - 1e-8

    def test_outer_constant_is_msfe(self):
        p = TransferPoly([0.5, -0.2, -0.48])
        fact = inner_outer_factor(p)
        assert abs(fact.outer.coeffs[0]) == pytest.approx(root_msfe(p), abs=1e-10)

    def test_unit_circle_isometry(self):
        # Outer part preserves the modulus everywhere on the circle.
        p = TransferPoly([0.5, 1.0, 0.48])
        fact = inner_outer_factor(p)
        for theta in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False):
            z = np.exp(1j * theta)
            assert abs(polyval(z, p.coeffs)) == pytest.approx(
                abs(polyval(z, fact.outer.coeffs)), abs=1e-8)

    def test_reconstruction_through_blaschke(self):
        def blaschke(z):
            """The inner (all-pass) factor of fact at z."""
            acc = 1.0 + 0j
            for r in fact.inner_roots:
                acc = acc * (z - r) / (1.0 - np.conj(r) * z)
            return acc

        p = TransferPoly([0.5, -0.2, -0.48])
        fact = inner_outer_factor(p)
        for theta in np.linspace(0.1, 2.0 * np.pi, 64, endpoint=False):
            z = np.exp(1j * theta)
            recon = polyval(z, fact.outer.coeffs) * blaschke(z)
            assert recon == pytest.approx(polyval(z, p.coeffs), abs=1e-8)

    def test_invertible_poly_passes_through(self):
        p = TransferPoly([0.8, -0.35])
        fact = inner_outer_factor(p)
        assert fact.inner_roots == ()
        assert np.allclose(fact.outer.coeffs, p.coeffs)
        assert root_msfe(p) == pytest.approx(abs(p.coeffs[0]), abs=1e-12)

    def test_degree0(self):
        fact = inner_outer_factor(TransferPoly([5.0]))
        assert fact.inner_roots == () and root_msfe(TransferPoly([5.0])) == 5.0

    def test_zero_poly_rejected(self):
        zero = TransferPoly([0.0])
        with pytest.raises(ZeroPolynomial):
            inner_outer_factor(zero)
        with pytest.raises(ZeroPolynomial):
            root_msfe(zero)
        with pytest.raises(ZeroPolynomial):
            is_invertible(zero)

    def test_boundary_root_warns(self):
        with pytest.warns(RuntimeWarning):
            inner_outer_factor(TransferPoly([1.0, -1.0]))

    def test_complex_pair_outer_stays_real(self):
        p = TransferPoly([0.3, -0.2, 0.9])  # conjugate pair inside the circle
        fact = inner_outer_factor(p)
        assert fact.outer.coeffs.dtype == np.float64
        assert root_msfe(p) == pytest.approx(mp_root_msfe([0.3, -0.2, 0.9]), abs=1e-10)

    @given(coeffs_strategy())
    @settings(max_examples=60, deadline=None)
    def test_msfe_floor_and_oracle(self, coeffs):
        p = TransferPoly(coeffs)
        got = root_msfe(p)
        # Reflection can only grow the constant term.
        assert got >= abs(p.coeffs[0]) - 1e-9 * max(1.0, abs(p.coeffs[0]))
        assert got == pytest.approx(mp_root_msfe(list(p.coeffs)), rel=1e-7)


class TestRootSplit:
    """inner_outer_factor, root_msfe and is_invertible classify roots by one
    split, which owns the boundary tolerance."""

    @pytest.mark.parametrize("tol", [float("nan"), -0.1, 1.0, 2.0])
    def test_boundary_tol_outside_unit_interval_rejected(self, tol):
        # 1 + 2z has its root -0.5 inside the disk, which tol = 2 would hide
        p = TransferPoly([1.0, 2.0])
        for split in (inner_outer_factor, root_msfe, is_invertible):
            with pytest.raises(ValueError, match="boundary_tol"):
                split(p, boundary_tol=tol)
        with pytest.raises(ValueError, match="boundary_tol"):
            DemandModel(15.0, p, boundary_tol=tol)

    @given(st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                    min_size=1, max_size=7)
           .filter(lambda c: abs(c[0]) > 0.05 and abs(c[-1]) > 0.05),
           st.sampled_from([0.0, 1e-9, 1e-3]))
    @settings(max_examples=150, deadline=None)
    def test_three_answers_agree(self, coeffs, tol):
        p = TransferPoly(coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # roots in the band
            fact = inner_outer_factor(p, boundary_tol=tol)
        msfe = root_msfe(p, boundary_tol=tol)
        assert is_invertible(p, boundary_tol=tol) == (fact.inner_roots == ())
        assert fact.invertible == (fact.inner_roots == ())
        assert msfe == pytest.approx(abs(fact.outer.coeffs[0]), rel=1e-9)
        # the factorization carries the same split: its roots and root MSFE
        assert fact.root_msfe == msfe
        expected = poly_roots(p)
        np.testing.assert_array_equal(np.array(fact.roots), expected)
        # the oracle splits at modulus 1; away from [1 - tol, 1) both agree
        moduli = np.abs(mp_roots(list(p.coeffs))) if p.degree else np.empty(0)
        if not np.any((moduli >= 1.0 - tol - 1e-6) & (moduli < 1.0 + 1e-6)):
            oracle = mp_root_msfe(list(p.coeffs))
            assert msfe == pytest.approx(oracle, rel=1e-7)
            assert abs(fact.outer.coeffs[0]) == pytest.approx(oracle, rel=1e-7)


    @pytest.mark.parametrize("coeffs, want", [
        ([0.0, 2.0, 1.0], 2.0), ([0.0, 0.5, 1.0], 1.0), ([0.0, 0.0, 1.0, 3.0], 3.0)])
    def test_roots_at_zero_leave_the_product(self, coeffs, want):
        # a z^m factor is all-pass: the first nonzero coefficient over the
        # moduli of the other inner roots
        assert root_msfe(TransferPoly(coeffs)) == want

    def test_an_underflowing_inner_product_is_infinite(self):
        # 1e-300 + 1e30 z^2: the roots +-1e-165 i come back as exact zeros,
        # as their product is below the float range, so the inner product is
        # 0: the root MSFE is inf, which the callers name, with no
        # ZeroDivisionError and no warning
        p = TransferPoly([1e-300, 0.0, 1e30])
        assert root_msfe(p) == inner_outer_factor(p).root_msfe == np.inf
        assert not is_invertible(p)


class TestInnovationsCrossCheck:
    def test_mixed_poly_two_routes_agree(self):
        coeffs = [0.5, 1.0, 0.48]
        assert root_msfe(TransferPoly(coeffs)) == pytest.approx(
            innovations_msfe_oracle(coeffs), rel=5e-3)

    def test_random_polys_two_routes_agree(self):
        rng = np.random.default_rng(20260822)
        for _ in range(25):
            n_pairs = rng.integers(0, 3)
            n_real = rng.integers(0 if n_pairs else 1, 4 - n_pairs)
            p = poly_from_roots(rng, int(n_real), int(n_pairs),
                                lead=rng.uniform(0.3, 2.0))
            # Root moduli sit in [0.2, 0.8] or [1.25, 5]; the innovation
            # variance converges at rate 0.8^(2t), so 120 steps is plenty.
            assert root_msfe(p) == pytest.approx(
                innovations_msfe_oracle(list(p.coeffs), steps=120), rel=5e-3)



def spread_roots(rng, degree):
    """degree roots at the angles 2 pi (k + 1/2) / degree, one modulus per
    conjugate pair and for the real root -m of odd degree.  Moduli lie in
    [0.05, 0.99] or [1.01, 20], and three in ten within 2e-2 of the circle."""
    theta = 2 * np.pi * (np.arange(degree) + 0.5) / degree
    roots = []
    for k in range((degree + 1) // 2):
        m = rng.uniform(0.05, 0.99) if rng.random() < 0.5 else rng.uniform(1.01, 20.0)
        if rng.random() < 0.3:
            m = 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.02)
        if 2 * k + 1 == degree:
            roots.append(-m)
        else:
            roots += [m * np.exp(1j * theta[k]), m * np.exp(-1j * theta[k])]
    return roots


@pytest.mark.parametrize("psi", [[1.0, 5.0], [1.0, 0.5], [0.5, -0.2, -0.48],
                                 [1.0, -0.6, 0.58], [2.0, 0.3, -0.4, 0.1]])
def test_factor_is_scale_free(psi):
    # s psi has the roots, the root split and s times the root MSFE of psi,
    # from s = 1e-200 to 1e200
    psi = np.array(psi)
    want = inner_outer_factor(TransferPoly(psi))
    for scale in 10.0 ** np.arange(-200, 201, 25):
        got = inner_outer_factor(TransferPoly(scale * psi))
        assert len(got.roots) == len(want.roots) == psi.size - 1
        assert got.invertible == want.invertible
        np.testing.assert_allclose(got.roots, want.roots, rtol=1e-12, atol=0)
        assert got.root_msfe == pytest.approx(scale * want.root_msfe, rel=1e-12, abs=0)


class TestJensenCrossCheck:
    def test_repeated_root_keeps_its_msfe(self):
        # (1 + 0.5 z)^3 is invertible, so its root MSFE is |psi(0)| = 1; the
        # Jensen mean has it to rounding, and so must the roots, whose three
        # copies a Newton polish would move unevenly (to 1 + 1.4e-6)
        p = TransferPoly([1.0, 1.5, 0.75, 0.125])
        assert jensen_root_msfe(p.coeffs) == pytest.approx(1.0, rel=1e-12)
        assert root_msfe(p) == pytest.approx(1.0, rel=1e-12)

    # Jensen's formula (Kolmogorov-Szego): log root_msfe(psi) is the mean of
    # log|psi| over the unit circle, which an FFT takes with no root
    # (oracles.jensen_root_msfe)
    @pytest.mark.parametrize("degree", range(9))
    def test_root_msfe_is_the_mean_log_modulus(self, degree):
        rng = np.random.default_rng(4100 + degree)
        for _ in range(60):
            lead = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
            p = TransferPoly(lead * np.atleast_1d(
                np.poly(spread_roots(rng, degree)))[::-1].real)
            jensen = jensen_root_msfe(p.coeffs)
            assert root_msfe(p) == pytest.approx(jensen, rel=1e-12, abs=0)
            assert inner_outer_factor(p).root_msfe == pytest.approx(
                jensen, rel=1e-12, abs=0)

    @pytest.mark.parametrize("N", [2, 3, 10, 11, 100, 1001])
    @pytest.mark.parametrize("psi", [[5.0], [5.0, 2.0, 1.0]])
    def test_design_seller_filters(self, psi, N):
        # the seller filters of the neutral designs (and, for even N, of the
        # three-lag variant) from sigma_L to 10 sigma_L: each one with every
        # root 1e-2 or more off the circle has the Jensen root MSFE, and
        # that is the design's sigma
        model = DemandModel(15.0, TransferPoly(psi))
        sigma_l = sigma_lower_bound(model, N)
        designs = [(r * sigma_l, neutral_policy(model, N, r * sigma_l))
                   for r in (1.0, 1.5, 2.0, 3.0, 10.0)]
        if N % 2 == 0:
            designs += [(r * sigma_l, lagged_variant(model, N, r * sigma_l, k=3))
                        for r in (1.0, 1.5, 2.0, 3.0, 10.0)]
        checked = 0
        for sigma, pol in designs:
            for f in seller_filters(pol, model)[0]:
                if np.any(np.abs(np.abs(np.roots(f.coeffs[::-1])) - 1.0) < 1e-2):
                    continue
                jensen = jensen_root_msfe(f.coeffs)
                assert root_msfe(f) == pytest.approx(jensen, rel=1e-12, abs=0)
                assert root_msfe(f) == pytest.approx(sigma, rel=1e-9, abs=0)
                checked += 1
        assert checked >= len(designs)
