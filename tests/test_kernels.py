"""Kernel values, derivatives, and the shape-parameter rule."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridstat import Kernel, KernelKind, OMEGA, shape_parameter

ALL_KINDS = list(KernelKind)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_phi_at_zero_is_one(kind):
    assert Kernel(kind, 1.3).phi(0.0) == pytest.approx(1.0, abs=0)


def test_phi_values():
    assert Kernel(KernelKind.GAUSSIAN, 1.0).phi(0.0) == 1.0
    assert Kernel(KernelKind.WENDLAND31, 1.0).phi(1.0) == 0.0
    assert Kernel(KernelKind.INVERSE_QUADRIC, 1.0).phi(1.0) == pytest.approx(0.5)


def test_phi_negative_radius_rejected():
    k = Kernel(KernelKind.GAUSSIAN, 1.0)
    for fn in (k.phi, k.phi_prime, k.phi_second, k.psi, k.eta, k.psi_eta):
        with pytest.raises(ValueError):
            fn(-0.1)


def test_alpha_must_be_positive():
    with pytest.raises(ValueError):
        Kernel(KernelKind.GAUSSIAN, 0.0)
    with pytest.raises(ValueError):
        Kernel(KernelKind.GAUSSIAN, -1.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_alpha_must_be_finite(kind, alpha):
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        Kernel(kind, alpha)


# the largest alpha whose psi and eta coefficients are finite is about
# 8.19e76 (4 a^4, Gaussian), 6.89e76 (8 a^4, inverse quadric) and 1.44e102
# (60 a^3, Wendland)
@pytest.mark.parametrize("kind, alpha", [
    (KernelKind.GAUSSIAN, 8.2e76), (KernelKind.GAUSSIAN, 1.05e299),
    (KernelKind.INVERSE_QUADRIC, 6.9e76), (KernelKind.WENDLAND31, 1.45e102),
    (KernelKind.WENDLAND31, 1e200)])
def test_alpha_with_overflowing_coefficients_is_rejected(kind, alpha):
    with pytest.raises(ValueError, match="coefficients .* are not finite"):
        Kernel(kind, alpha)


@pytest.mark.parametrize("kind, alpha", [(KernelKind.GAUSSIAN, 8.1e76),
                                         (KernelKind.INVERSE_QUADRIC, 6.8e76),
                                         (KernelKind.WENDLAND31, 1.43e102)])
def test_largest_alphas_have_finite_coefficients(kind, alpha):
    assert all(map(math.isfinite, Kernel(kind, alpha)._coefficients()))


def test_phi_prime_values():
    for kind in ALL_KINDS:
        assert Kernel(kind, 1.7).phi_prime(0.0) == 0.0
    assert Kernel(KernelKind.GAUSSIAN, 1.0).phi_prime(1.0) == pytest.approx(-2 * math.exp(-1))
    k = Kernel(KernelKind.WENDLAND31, 1.0)
    assert k.phi_prime(1.0) == 0.0
    assert k.phi_prime(2.5) == 0.0


def test_psi_values_and_limits():
    assert Kernel(KernelKind.GAUSSIAN, 1.0).psi(0.0) == pytest.approx(-2.0)
    assert Kernel(KernelKind.WENDLAND31, 2.0).psi(0.0) == pytest.approx(-80.0)
    assert Kernel(KernelKind.INVERSE_QUADRIC, 1.0).psi(1.0) == pytest.approx(-0.5)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_psi_continuous_at_zero(kind):
    k = Kernel(kind, 1.4)
    assert abs(k.psi(1e-8) - k.psi(0.0)) <= 1e-6 * abs(k.psi(0.0))


def test_eta_values():
    assert Kernel(KernelKind.GAUSSIAN, 1.0).eta(0.0) == pytest.approx(4.0)
    k = Kernel(KernelKind.WENDLAND31, 1.0)
    assert k.eta(1.0) == 0.0
    assert k.eta(3.0) == 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_eta_is_psi_prime_over_r(kind):
    # d(psi)/dr == eta(r) * r, checked by central differences at r = 0.7
    k = Kernel(kind, 1.0)
    h = 1e-5
    dpsi = (k.psi(0.7 + h) - k.psi(0.7 - h)) / (2 * h)
    assert dpsi == pytest.approx(k.eta(0.7) * 0.7, rel=1e-6)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_phi_prime_is_derivative_of_phi(kind):
    rng = np.random.default_rng(7)
    k = Kernel(kind, 1.2)
    h = 1e-6
    for r in rng.uniform(h, 2.0 / k.alpha, 20):
        fd = (k.phi(r + h) - k.phi(r - h)) / (2 * h)
        assert fd == pytest.approx(k.phi_prime(r), rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_phi_second_matches_finite_differences(kind):
    rng = np.random.default_rng(8)
    k = Kernel(kind, 0.9)
    h = 1e-5
    # stay away from the Wendland support boundary where phi'' jumps
    for r in rng.uniform(0.05, 0.9 / k.alpha, 20):
        fd = (k.phi_prime(r + h) - k.phi_prime(r - h)) / (2 * h)
        assert fd == pytest.approx(k.phi_second(r), rel=1e-5, abs=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_phi_second_at_and_near_zero(kind):
    # at subnormal radii Wendland's eta overflows; phi'' is still psi(0)
    k = Kernel(kind, 1.3)
    r = np.array([0.0, 1e-300, 1e-310, 5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(k.phi_second(r), np.full(4, k.psi(0.0)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_inflection_radius(kind):
    # phi'' vanishes at r = omega / alpha, the property defining omega
    rng = np.random.default_rng(9)
    for alpha in rng.uniform(0.5, 1.0, 5):
        k = Kernel(kind, alpha)
        assert abs(k.phi_second(OMEGA[kind] / alpha)) < 1e-12


def test_shape_parameter_values():
    assert shape_parameter(KernelKind.GAUSSIAN, math.sqrt(2)) == pytest.approx(1 / 6)
    assert shape_parameter(KernelKind.WENDLAND31, 1.0) == pytest.approx(1 / 12)
    assert shape_parameter(KernelKind.INVERSE_QUADRIC, 1.0) == pytest.approx(1 / (3 * math.sqrt(3)))
    with pytest.raises(ValueError):
        shape_parameter(KernelKind.GAUSSIAN, 0.0)


def test_omega_constants():
    assert OMEGA[KernelKind.GAUSSIAN] == 1 / math.sqrt(2)
    assert OMEGA[KernelKind.INVERSE_QUADRIC] == 1 / math.sqrt(3)
    assert OMEGA[KernelKind.WENDLAND31] == 0.25


def test_positivity_and_support():
    r = np.linspace(0, 10, 200)
    assert np.all(Kernel(KernelKind.GAUSSIAN, 0.8).phi(r) > 0)
    assert np.all(Kernel(KernelKind.INVERSE_QUADRIC, 0.8).phi(r) > 0)
    w = Kernel(KernelKind.WENDLAND31, 0.8)
    out = r >= 1 / 0.8
    assert np.all(w.phi(r[out]) == 0)
    assert np.all(w.phi(r[~out]) > 0)


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS),
       alpha=st.floats(0.1, 5.0),
       r=st.floats(0.0, 10.0))
def test_phi_prime_equals_psi_times_r(kind, alpha, r):
    k = Kernel(kind, alpha)
    assert k.phi_prime(r) == pytest.approx(k.psi(r) * r, rel=1e-12, abs=1e-300)


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS),
       alpha=st.floats(0.1, 5.0),
       r=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8))
# numpy evaluates integer powers of 0-d inputs by another route than of
# arrays, and the two differ by an ulp at these inputs
@example(kind=KernelKind.INVERSE_QUADRIC, alpha=0.3175132598449121,
         r=[6.582840517577834])
@example(kind=KernelKind.WENDLAND31, alpha=0.1, r=[4.0])
def test_array_and_scalar_evaluation_agree(kind, alpha, r):
    k = Kernel(kind, alpha)
    arr = np.array(r)
    for fn in (k.phi, k.phi_prime, k.psi, k.eta):
        np.testing.assert_array_equal(fn(arr), np.array([fn(v) for v in r]))


# --- psi and eta from one evaluation ------------------------------------------

def psi_reference(k, r):
    """psi as the closed forms were first written, one formula per kind."""
    a2 = k.alpha * k.alpha
    u = k.alpha * np.atleast_1d(np.asarray(r, float))
    if k.kind is KernelKind.GAUSSIAN:
        return -2.0 * a2 * np.exp(-(u * u))
    if k.kind is KernelKind.INVERSE_QUADRIC:
        return -2.0 * a2 / (1.0 + u * u) ** 2
    return -20.0 * a2 * np.maximum(1.0 - u, 0.0) ** 3


def eta_reference(k, r):
    """eta as the closed forms were first written, one formula per kind."""
    r = np.atleast_1d(np.asarray(r, float))
    a2 = k.alpha * k.alpha
    a4 = a2 * a2
    u = k.alpha * r
    u2 = u * u
    if k.kind is KernelKind.GAUSSIAN:
        return 4.0 * a4 * np.exp(-u2)
    if k.kind is KernelKind.INVERSE_QUADRIC:
        return 8.0 * a4 / (1.0 + u2) ** 3
    t = np.maximum(1.0 - u, 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(r > 0, 60.0 * a2 * k.alpha * t * t / np.where(r > 0, r, 1.0), 0.0)


def assert_same_bits(got, want):
    """Equal shapes and equal bytes: -0.0 differs from 0.0."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def radii(k):
    """0, interior radii, Wendland's support 1/alpha and beyond it, and the
    radii where the Gaussian's exp(-(alpha r)^2) goes subnormal and then 0."""
    support = 1.0 / k.alpha
    interior = np.random.default_rng(11).uniform(0.0, support, 40)
    edge = np.nextafter(support, [0.0, np.inf])
    gauss = np.array([26.0, 27.0, 27.3, 27.5, 28.0, 40.0]) / k.alpha
    return np.concatenate([[0.0, 5e-324, 1e-300], interior, [support], edge,
                           [1.5 * support, 3.0 * support], gauss])


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("alpha", [0.3175132598449121, 1.0, 7.0121])
def test_psi_eta_equals_psi_and_eta_bit_for_bit(kind, alpha):
    k = Kernel(kind, alpha)
    r = radii(k)
    psi, eta = k.psi_eta(r)
    assert_same_bits(psi, k.psi(r))
    assert_same_bits(eta, k.eta(r))
    # and both keep the closed forms' bits
    assert_same_bits(psi, psi_reference(k, r))
    assert_same_bits(eta, eta_reference(k, r))
    # shapes the engine passes: (S, 16) rows and a stack of them
    grid = r[:48].reshape(3, 16)
    for shaped in (grid, grid[None], grid.T):
        p, e = k.psi_eta(shaped)
        assert_same_bits(p, k.psi(shaped))
        assert_same_bits(e, k.eta(shaped))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_psi_eta_on_a_scalar_gives_two_floats(kind):
    k = Kernel(kind, 1.3)
    for r in radii(k):
        psi, eta = k.psi_eta(r)
        assert type(psi) is float and type(eta) is float
        assert_same_bits(psi, k.psi(r))
        assert_same_bits(eta, k.eta(r))
        assert_same_bits(psi, psi_reference(k, r)[0])
        assert_same_bits(eta, eta_reference(k, r)[0])
    psi, eta = k.psi_eta(np.float64(0.25))
    assert type(psi) is float and type(eta) is float


def test_gaussian_underflow_and_wendland_support():
    g = Kernel(KernelKind.GAUSSIAN, 1.0)
    psi, eta = g.psi_eta(np.array([27.2, 40.0]))
    assert 0 < -psi[0] < 1e-300 and 0 < eta[0] < 1e-300  # subnormal
    assert_same_bits(psi[1:], [-0.0])
    assert_same_bits(eta[1:], [0.0])
    w = Kernel(KernelKind.WENDLAND31, 2.0)
    psi, eta = w.psi_eta(np.array([0.0, 0.5, 0.75]))
    assert eta[0] == 0.0 and psi[0] == -80.0
    assert_same_bits(psi[1:], [-0.0, -0.0])
    assert_same_bits(eta[1:], [0.0, 0.0])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_psi_eta_rejects_a_negative_radius(kind):
    k = Kernel(kind, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        k.psi_eta(np.array([0.5, -1e-300, 0.25]))
    with pytest.raises(ValueError, match="nonnegative"):
        k.psi_eta(-0.5)


def test_psi_eta_leaves_its_argument_unchanged():
    for kind in ALL_KINDS:
        r = np.linspace(0.0, 2.0, 33)
        before = r.copy()
        Kernel(kind, 1.1).psi_eta(r)
        assert_same_bits(r, before)


# --- psi and eta at the nodes of a patch ----------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("alpha", [0.3175132598449121, 1.0, 7.0121])
def test_psi_eta_nodes_agree_with_psi_eta_of_the_radius(kind, alpha):
    # psi and eta from the squared offsets per axis against psi_eta of
    # r = sqrt(ox^2 + oy^2), with r = 0, the box corner r = 3 sqrt(2) and
    # Wendland's support edge among the inputs.  Wendland takes psi_eta of
    # that r itself, so it keeps its bits.  From the same squares, counted
    # step by step in units of u = 2^-53 against the exact values, with t =
    # (a r)^2 and each exp within an ulp (2u): the Gaussian's psi and eta
    # err by (2t + 7)u and (2t + 9)u times e^-t, psi_eta's by (6t + 4)u and
    # (6t + 6)u, so the two differ by 16u of psi(0) and eta(0) at most; the
    # inverse quadric's by 13u and 21u, psi_eta's by 17u and 27u (its
    # q = 1 + (a r)^2 takes 7u against 4u here, then a square, a cube and
    # the divisions), so by 30u of psi(0) and 48u of eta(0)
    k = Kernel(kind, alpha)
    rng = np.random.default_rng(7)
    ox, oy = rng.uniform(-3.0, 3.0, (2, 4, 5000))
    ox[:, 0], oy[:, 0] = 0.0, 0.0                                  # r = 0
    ox[:, 1], oy[:, 1] = 3.0, -3.0                                 # the box corner
    ox[:, 2], oy[:, 2] = 1.0 / alpha, 0.0                          # the support edge
    ox[:, 3], oy[:, 3] = np.nextafter(1.0 / alpha, 0.0), 0.0       # just inside it
    ox2, oy2 = ox * ox, oy * oy
    psi, eta = k.psi_eta_nodes(ox2, oy2)
    assert psi.shape == eta.shape == (4, 4, 5000)
    want_psi, want_eta = k.psi_eta(np.sqrt(oy2[:, None] + ox2))
    if kind is KernelKind.WENDLAND31:
        assert_same_bits(psi, want_psi)
        assert_same_bits(eta, want_eta)
        assert eta[0, 0, 0] == 0.0
    else:
        ulps = (16.0, 16.0) if kind is KernelKind.GAUSSIAN else (30.0, 48.0)
        psi0, eta0 = k.psi_eta(0.0)
        assert np.all(np.abs(psi - want_psi) <= ulps[0] * 2.0 ** -53 * abs(psi0))
        assert np.all(np.abs(eta - want_eta) <= ulps[1] * 2.0 ** -53 * abs(eta0))
    # one point gives the bits it gives among 5000
    for n in (0, 1, 4999):
        one = k.psi_eta_nodes(ox2[:, n:n + 1], oy2[:, n:n + 1])
        assert_same_bits(one[0], psi[..., n:n + 1])
        assert_same_bits(one[1], eta[..., n:n + 1])
