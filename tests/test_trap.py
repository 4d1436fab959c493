import functools
import math
import operator
import random
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import eval_genlaguerre, jv

from oracles import bisected_half_width, fixed_half_width, fixed_width_series
from twistkick import trap as trap_module
from twistkick.beam import DEFAULT_PITCH_ANGLE, TwistedPhotonBeam, superkick, \
    transverse_wavenumber
from twistkick.errors import DomainError, NoAbsorptionError, TruncationWarning, \
    TwistkickError
from twistkick.pair_production import small_angle_threshold
from twistkick.special_functions import bessel_i_scaled_orders, bessel_j_orders
from twistkick.sweeps import GridSpec, SweepSpec, run_sweep
from twistkick.trap import (
    MAX_SIDEBAND_LEVEL,
    TrapModel,
    in_lamb_dicke_regime,
    jump_probability_extended,
    jump_probability_point,
    lamb_dicke,
    level_spacing,
    sideband_spectrum,
)
from twistkick.units import CA40_ION_MASS_EV, NEV, frequency_to_energy, \
    wavelength_to_energy


def ca_trap(f_mhz=1.5):
    return TrapModel(f_mhz * 1e6, f_mhz * 1e6, CA40_ION_MASS_EV)


def make_beam(m=-2, spin=-1, lam=729.0, theta=0.1):
    return TwistedPhotonBeam(m, spin, wavelength_to_energy(lam), theta)


def test_trap_validation():
    with pytest.raises(DomainError):
        TrapModel(0.0, 1.5e6, CA40_ION_MASS_EV)
    with pytest.raises(DomainError):
        TrapModel(1.5e6, 1.5e6, -1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("slot", range(3))
def test_trap_rejects_non_finite_inputs(slot, bad):
    inputs = [1.5e6, 1.5e6, CA40_ION_MASS_EV]
    inputs[slot] = bad
    with pytest.raises(DomainError) as err:
        TrapModel(*inputs)
    assert err.value.code == "DOMAIN"


@pytest.mark.parametrize("slot", range(3))
def test_trap_rejects_an_int_beyond_the_float_range(slot):
    # accepted before, with an uncoded OverflowError where the mass was used
    inputs = [1.5e6, 1.5e6, CA40_ION_MASS_EV]
    inputs[slot] = 10**400
    with pytest.raises(DomainError, match="is beyond the floating-point range") as err:
        TrapModel(*inputs)
    assert err.value.code == "DOMAIN"
    assert str(err.value).startswith(TrapModel._fields[slot])


def test_level_spacing_quotable():
    assert level_spacing(ca_trap()) == pytest.approx(6.2 * NEV, rel=0.02)
    assert level_spacing(ca_trap(0.75)) == pytest.approx(
        0.5 * level_spacing(ca_trap()), rel=1e-12
    )
    assert level_spacing(ca_trap(3.0)) == pytest.approx(12.4 * NEV, rel=0.02)


def test_oscillator_length_and_ground_sigma():
    trap = ca_trap()
    # x0 = hbar c / sqrt(M c^2 * hf); ground-state rms per axis is x0/sqrt(2),
    # close to the 10 nm wavepacket scale of the extended-target model
    assert trap.oscillator_length() == pytest.approx(12.985, rel=1e-3)
    assert trap.ground_state_sigma() == pytest.approx(9.182, rel=1e-3)


def test_lamb_dicke_parameter():
    spacing = level_spacing(ca_trap(), "transverse")
    assert lamb_dicke(spacing, 1.5e6) == pytest.approx(1.0, rel=1e-12)
    # composition of the two quotable numbers: sqrt(0.13/6.2) ~ 0.145
    assert lamb_dicke(0.13 * NEV, 1.5e6) == pytest.approx(
        math.sqrt(0.13 / 6.2), rel=0.03
    )


def test_oscillator_length_out_of_float_range_is_domain():
    # M h f underflows to 0 (a ZeroDivisionError before) or overflows (an
    # oscillator length of 0 before)
    for trap, fault in ((TrapModel(1.5e6, 1e-300, 5e-324), "underflows to 0"),
                        (TrapModel(1.5e6, 1e20, 1e308), "overflows")):
        for length in (trap.oscillator_length, trap.ground_state_sigma):
            with pytest.raises(DomainError, match=fault) as err:
                length()
            assert err.value.code == "DOMAIN"


def test_lamb_dicke_overflow_is_domain():
    # E_rec / (h f) overflows, where an infinite eta was returned before
    for energy in (1.7e308, math.inf):
        with pytest.raises(DomainError, match="overflows") as err:
            lamb_dicke(energy, 1.5e6)
        assert err.value.code == "DOMAIN"
    with pytest.raises(DomainError, match="recoil energy is beyond"):
        lamb_dicke(10**400, 1.5e6)
    with pytest.raises(DomainError, match="a value that is not a number"):
        lamb_dicke(math.nan, 1.5e6)


def test_lamb_dicke_regime_flag():
    assert in_lamb_dicke_regime(0.145)
    assert not in_lamb_dicke_regime(1.0)
    assert not in_lamb_dicke_regime(3.0)


def test_jump_point_zero_kick():
    assert jump_probability_point(0.0, ca_trap()) == 0.0


def test_jump_point_unit_eta():
    # eta^2 = 1 built from exact float arithmetic: p_T^2/(2M) = hf
    trap = TrapModel(1.5e6, 1.5e6, 0.5)
    hf = frequency_to_energy(1.5e6)
    trap = TrapModel(1.5e6, 1.5e6, 2.0 * hf)
    p = jump_probability_point(2.0 * hf, trap)
    assert p == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_jump_point_composition_oracle():
    # dl=1, b=10 nm, 40Ca, 1.5 MHz: eta^2 ~ 0.84, P ~ 0.57
    trap = ca_trap()
    p_t = superkick(1, 10.0)
    eta_sq = p_t**2 / (2.0 * CA40_ION_MASS_EV) / level_spacing(trap, "transverse")
    assert eta_sq == pytest.approx(0.84, abs=0.01)
    p = jump_probability_point(p_t, trap)
    assert p == pytest.approx(1.0 - math.exp(-eta_sq), rel=1e-12)
    assert p == pytest.approx(0.57, abs=0.01)


def test_jump_point_monotonicity():
    trap = ca_trap()
    ps = [jump_probability_point(p, trap) for p in (0.0, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(ps, ps[1:]))
    stiffer = ca_trap(3.0)
    assert jump_probability_point(2.0, stiffer) < jump_probability_point(2.0, trap)


def dblquad_jump_oracle(beam, nu, b, sigma):
    """Independent extended-packet jump probability: both packet averages by
    adaptive 2-D quadrature in polar coordinates (s, alpha) about the trap
    center, out to s = 9 sigma (the former runtime engine)."""
    kappa = transverse_wavenumber(beam)
    norm = 1.0 / (2.0 * math.pi * sigma * sigma)
    s_max = 9.0 * sigma

    def weighted(alpha, s, kind):
        x = b + s * math.cos(alpha)
        y = s * math.sin(alpha)
        f = float(jv(nu, kappa * math.hypot(x, y)))
        val = f * f if kind == "sq" else f * math.cos(nu * math.atan2(y, x))
        return val * math.exp(-0.5 * (s / sigma) ** 2) * s * norm

    # integrands are symmetric under alpha -> -alpha; halve the domain
    denom, _ = dblquad(
        lambda a, s: weighted(a, s, "sq"), 0.0, s_max, 0.0, math.pi,
        epsabs=1e-14, epsrel=1e-9,
    )
    denom *= 2.0
    numer, _ = dblquad(
        lambda a, s: weighted(a, s, "carrier"), 0.0, s_max, 0.0, math.pi,
        epsabs=1e-9 * math.sqrt(denom), epsrel=1e-10,
    )
    numer *= 2.0
    return min(max(1.0 - numer * numer / denom, 0.0), 1.0)


def test_jump_extended_matches_dblquad_oracle_fig7_defaults():
    beam = TwistedPhotonBeam(-2, -1, wavelength_to_energy(729.0), DEFAULT_PITCH_ANGLE)
    for b in (10.0, 300.0, 3000.0):
        p = jump_probability_extended(beam, -1, b, ca_trap(), 10.0)
        assert p == pytest.approx(dblquad_jump_oracle(beam, -1, b, 10.0), abs=1e-9)


def test_jump_extended_matches_dblquad_oracle_random():
    # criterion 9's beam, nu and sigma ranges, with b out to 3000 nm
    rng = np.random.default_rng(61)
    for _ in range(20):
        beam = TwistedPhotonBeam(
            int(rng.integers(-3, 4)), int(rng.choice([-1, 1])),
            wavelength_to_energy(float(rng.uniform(350.0, 1000.0))),
            float(rng.uniform(0.01, 0.3)),
        )
        nu = int(rng.integers(-2, 3))
        b = float(rng.choice([rng.uniform(0.0, 40.0), rng.uniform(0.0, 3000.0)]))
        sigma = float(rng.uniform(4.0, 20.0))
        p = jump_probability_extended(beam, nu, b, ca_trap(), sigma)
        assert p == pytest.approx(dblquad_jump_oracle(beam, nu, b, sigma), abs=1e-9)


def test_jump_extended_domain_edges():
    beam = make_beam()
    kappa = transverse_wavenumber(beam)
    with pytest.raises(DomainError):
        jump_probability_extended(beam, 65, 10.0, ca_trap(), 10.0)
    with pytest.raises(DomainError):
        jump_probability_extended(beam, -65, 10.0, ca_trap(), 10.0)
    # the beam factor is needed out to b + 9 sigma from the vortex line
    sigma = 10.0
    b_edge = 1e6 / kappa - 9.0 * sigma
    with pytest.raises(DomainError):
        jump_probability_extended(beam, 1, b_edge * (1.0 + 1e-9), ca_trap(), sigma)
    assert 0.0 <= jump_probability_extended(
        beam, 1, b_edge * (1.0 - 1e-9), ca_trap(), sigma
    ) <= 1.0


def test_jump_extended_array_matches_scalar_calls():
    # every b of the array equals the float call bit for bit, across the
    # packet widths of the Bessel regimes and the carrier underflow; an array
    # holding a b where the float call finds no absorption raises for all
    beam = make_beam()
    kappa = transverse_wavenumber(beam)
    b = np.concatenate([[0.0, 1e-300], np.geomspace(1e-2, 5e5, 15) / kappa])
    for nu in (-3, 0, 2, 64):
        for sigma in (0.1, 10.0, 30.0 / kappa, 5e4 / kappa):
            inside = b[kappa * (b + 9.0 * sigma) <= 1e6].tolist()
            floats = {}
            for v in inside:
                try:
                    floats[v] = jump_probability_extended(beam, nu, v, ca_trap(), sigma)
                except NoAbsorptionError:
                    pass
            if len(floats) < len(inside):
                with pytest.raises(NoAbsorptionError):
                    jump_probability_extended(beam, nu, np.array(inside), ca_trap(), sigma)
            p = jump_probability_extended(beam, nu, np.array(list(floats)), ca_trap(), sigma)
            assert p.tolist() == list(floats.values()) and len(floats) >= 10


def test_jump_extended_array_raises_for_the_whole_array():
    beam = make_beam(m=5, spin=1, theta=1e-8)
    with pytest.raises(NoAbsorptionError):
        jump_probability_extended(beam, 40, np.array([0.0, 1.0]), ca_trap(), 1e-3)
    beam = make_beam()
    kappa = transverse_wavenumber(beam)
    for nu, b, sigma in ((65, [1.0], 10.0), (1, [-1.0, 1.0], 10.0), (1, [1.0], 0.0),
                         (1, [1.0, math.nan], 10.0), (1, [1.0, 1e6 / kappa], 10.0),
                         (1, [], 1e6 / kappa)):
        with pytest.raises(DomainError):
            jump_probability_extended(beam, nu, np.array(b), ca_trap(), sigma)


def test_point_kick_arrays_match_float_calls():
    # superkick and the point jump, each element bit for bit the float call,
    # through a kick that overflows to inf; any b <= 0 is a B_SINGULARITY
    trap = ca_trap()
    b = np.concatenate([[1e-310, 1e-300], np.geomspace(1e-3, 1e9, 20)])
    for delta_l in (0, 1, 3):
        kicks = superkick(delta_l, b)
        assert kicks.tolist() == [superkick(delta_l, v) for v in b.tolist()]
        assert jump_probability_point(kicks, trap).tolist() == [
            jump_probability_point(k, trap) for k in kicks.tolist()]
    for bad in ([1.0, 0.0], [2.0, -1.0], [1.0, math.nan]):
        with pytest.raises(DomainError) as err:
            superkick(1, np.array(bad))
        assert err.value.code == "B_SINGULARITY"
    with pytest.raises(DomainError):
        jump_probability_point(np.array([1.0, -1.0]), trap)
    # a numpy scalar that is not a float takes the array path
    assert jump_probability_point(np.float32(2.0), trap) == jump_probability_point(2.0, trap)
    assert superkick(1, np.int64(5)) == superkick(1, 5.0)


@pytest.mark.parametrize("call", [
    lambda: jump_probability_point(math.nan, ca_trap()),
    lambda: jump_probability_point(np.array([1.0, math.nan]), ca_trap()),
    lambda: superkick(math.nan, 1.0),
    lambda: superkick(math.nan, np.array([1.0, 2.0])),
    lambda: small_angle_threshold(2.5, math.nan),
    lambda: small_angle_threshold(2.5, math.inf),
    lambda: small_angle_threshold(math.nan, 1.0),
    lambda: small_angle_threshold(math.inf, 1.0),
], ids=["jump-point", "jump-point-array", "superkick", "superkick-array",
        "small-angle-nan-pt", "small-angle-inf-pt", "small-angle-nan-omega2",
        "small-angle-inf-omega2"])
def test_non_finite_input_is_a_domain_error(call):
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.code == "DOMAIN"


@pytest.mark.parametrize("call, name", [
    (lambda: superkick(1, 10**400), "impact parameter"),
    (lambda: jump_probability_point(10**400, ca_trap()), "p_T"),
    (lambda: jump_probability_extended(make_beam(), -1, 10**400, ca_trap(), 10.0),
     "impact parameter"),
    (lambda: small_angle_threshold(2.5, 1e200), "p_T"),
    (lambda: small_angle_threshold(5e-324, 1.0), "omega2"),
    (lambda: small_angle_threshold(2.5, 10**400), "p_T"),
    (lambda: small_angle_threshold(10**400, 1.0), "omega2"),
], ids=["superkick", "jump-point", "jump-extended", "small-angle-pt", "small-angle-omega2",
        "small-angle-int-pt", "small-angle-int-omega2"])
def test_input_beyond_the_float_range_is_a_domain_error(call, name):
    # an int beyond the float range passes 0 <= b < inf, and a threshold can
    # overflow from finite inputs; each is a DOMAIN error naming its input
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.code == "DOMAIN"
    assert str(err.value).startswith(name)


def test_jump_extended_wide_packet_stays_bounded():
    # kappa sigma = 27 sits just below the exp(-x) underflow, where the series
    # is longest (~9 kappa sigma terms per side); kappa sigma = 5e4 is beyond it
    beam = make_beam(theta=0.3)
    kappa = transverse_wavenumber(beam)
    for kappa_sigma in (27.0, 5e4):
        sigma = kappa_sigma / kappa
        for b in (0.0, 1e5 / kappa):
            p = jump_probability_extended(beam, 2, b, ca_trap(), sigma)
            assert 0.0 <= p <= 1.0


def test_jump_extended_carrier_suppression_on_axis():
    # beam centered on the packet: phase winding kills the carrier entirely
    p = jump_probability_extended(make_beam(), -1, 0.0, ca_trap(), 10.0)
    assert p == pytest.approx(1.0, abs=1e-9)


def test_jump_extended_constant_beam_limit():
    # nu = 0 and kappa*sigma -> 0: F is constant over the packet, no jumps
    beam = make_beam(m=1, spin=1, theta=1e-5)
    p = jump_probability_extended(beam, 0, 5.0, ca_trap(), 10.0)
    assert p < 1e-6


def test_jump_extended_riemann_oracle():
    # independent fixed-grid midpoint Riemann sum, base and 4x resolution
    beam = make_beam()
    nu, b, sigma = -1, 20.0, 10.0
    kappa = transverse_wavenumber(beam)

    def riemann(n_s, n_a):
        smax = 9.0 * sigma
        s = (np.arange(n_s) + 0.5) * smax / n_s
        alpha = (np.arange(n_a) + 0.5) * 2.0 * math.pi / n_a
        x = b + s[:, None] * np.cos(alpha)[None, :]
        y = s[:, None] * np.sin(alpha)[None, :]
        rho = np.hypot(x, y)
        phi = np.arctan2(y, x)
        f = jv(nu, kappa * rho) * np.exp(1j * nu * phi)
        g = np.exp(-0.5 * (s / sigma) ** 2) * s
        weight = float(np.sum(g)) * n_a  # discrete Gaussian normalization
        num = float(np.sum(f.real * g[:, None])) / weight
        den = float(np.sum(np.abs(f) ** 2 * g[:, None])) / weight
        return 1.0 - num * num / den

    p = jump_probability_extended(beam, nu, b, ca_trap(), sigma)
    assert p == pytest.approx(riemann(1200, 800), abs=1e-4)
    # base resolution already close; 4x refines toward the adaptive result
    assert abs(p - riemann(300, 200)) < 5e-4


def test_jump_extended_in_unit_interval():
    rng = np.random.default_rng(53)
    for _ in range(25):
        beam = make_beam(
            m=int(rng.integers(-3, 4)), spin=int(rng.choice([-1, 1])),
            lam=float(rng.uniform(300.0, 1000.0)), theta=float(rng.uniform(0.01, 0.3)),
        )
        nu = int(rng.integers(-3, 4))
        p = jump_probability_extended(
            beam, nu, float(rng.uniform(0.0, 60.0)), ca_trap(),
            float(rng.uniform(3.0, 25.0)),
        )
        assert 0.0 <= p <= 1.0


def test_point_model_dominates_in_saddling_region():
    # when the packet straddles the vortex line (b below the rms spread) the
    # extended-target kick is softened and the point model jumps more
    beam = make_beam()
    trap = ca_trap()
    sigma = 10.0
    for b in (1.0, 2.0, 5.0):
        p_point = jump_probability_point(superkick(1, b), trap)
        p_ext = jump_probability_extended(beam, -1, b, trap, sigma)
        assert p_point > p_ext


def test_models_converge_for_ground_state_packet_at_large_b():
    # far from the vortex a trap-ground-state packet feels a uniform phase
    # gradient: the overlap model reduces to the sudden-impulse formula
    beam = make_beam()
    trap = ca_trap()
    sigma = trap.ground_state_sigma()
    kappa = transverse_wavenumber(beam)
    b = 1.8412 / kappa  # radial intensity gradient vanishes at the J_1 peak
    p_point = jump_probability_point(superkick(1, b), trap)
    p_ext = jump_probability_extended(beam, -1, b, trap, sigma)
    assert p_ext == pytest.approx(p_point, rel=0.01)


def grid_sideband_oracle(beam, nu, b, sigma, n_max):
    """Independent sideband weights: matrix elements <n_r, l|F|0> of the polar
    2D oscillator basis (a = sigma sqrt 2) by Gauss-Legendre radial quadrature
    out to s = 9a and an FFT over a uniform azimuthal grid, normalized by the
    same grid's <|F|^2> (the former runtime engine)."""
    radial_nodes, azimuthal_nodes = 240, 512
    kappa = transverse_wavenumber(beam)
    a = sigma * math.sqrt(2.0)
    nodes, gl_weights = np.polynomial.legendre.leggauss(radial_nodes)
    s = 4.5 * a * (nodes + 1.0)
    ws = 4.5 * a * gl_weights
    alpha = 2.0 * math.pi * np.arange(azimuthal_nodes) / azimuthal_nodes
    x = b + s[:, None] * np.cos(alpha)[None, :]
    y = s[:, None] * np.sin(alpha)[None, :]
    f_grid = jv(nu, kappa * np.hypot(x, y)) * np.exp(1j * nu * np.arctan2(y, x))
    # azimuthal Fourier coefficients g_l(s) = (1/2pi) int F e^{-i l alpha}
    g = np.fft.fft(f_grid, axis=1) / azimuthal_nodes

    def radial(n_r, l):
        # R_{n,l}(s) = sqrt(2 n!/(a^2 (n+l)!)) (s/a)^l L_n^l(s^2/a^2) e^{-s^2/(2a^2)}
        u = (s / a) ** 2
        norm = math.sqrt(2.0 * math.factorial(n_r) / (a * a * math.factorial(n_r + l)))
        return norm * (s / a) ** l * eval_genlaguerre(n_r, l, u) * np.exp(-0.5 * u)

    r00 = radial(0, 0)
    # the polar ground state is R00/sqrt(2pi); the 1/(2pi) from the pair of
    # angular normalizations cancels against the 2pi of the measure
    denom = float(np.sum(ws * s * r00**2 * np.mean(np.abs(f_grid) ** 2, axis=1)))
    weights = []
    for n in range(n_max + 1):
        total = 0.0
        for l in range(-n, n + 1, 2):
            me = np.sum(ws * s * radial((n - abs(l)) // 2, abs(l)) * r00
                        * g[:, l % azimuthal_nodes])
            total += abs(me) ** 2
        weights.append(total / denom)
    return weights


def assert_matches_grid_oracle(beam, nu, b, sigma, n_max):
    spectrum = sideband_spectrum(beam, nu, b, ca_trap(), sigma, n_max=n_max)
    oracle = grid_sideband_oracle(beam, nu, b, sigma, n_max)
    assert list(spectrum.weights) == list(range(n_max + 1))
    for n, expected in enumerate(oracle):
        assert spectrum.weights[n] == pytest.approx(expected, abs=1e-12), n


def test_sideband_matches_grid_oracle_criterion_9_draws():
    # the draws of acceptance criterion 9, where P_jump = 1 - carrier holds by
    # construction; this oracle keeps that check tied to a second method
    rng = np.random.default_rng(4096)
    for _ in range(100):
        beam = TwistedPhotonBeam(
            int(rng.integers(-3, 4)), int(rng.choice([-1, 1])),
            wavelength_to_energy(float(rng.uniform(350.0, 1000.0))),
            float(rng.uniform(0.01, 0.3)),
        )
        nu = int(rng.integers(-2, 3))
        b = float(rng.uniform(0.0, 40.0))
        sigma = float(rng.uniform(4.0, 20.0))
        assert_matches_grid_oracle(beam, nu, b, sigma, 10)


@pytest.mark.parametrize("nu, b, sigma, n_max", [
    (-1, 20.0, 10.0, MAX_SIDEBAND_LEVEL),   # every accepted level
    (-1, 0.0, 10.0, 10),                    # on the vortex axis
    (2, 0.0, 10.0, 10),
    (-1, 20.0, 4000.0, 40),                 # wide packet, x = 11.8
])
def test_sideband_matches_grid_oracle_edges(nu, b, sigma, n_max):
    assert_matches_grid_oracle(make_beam(), nu, b, sigma, n_max)


def _mp_scaled_i(x, top):
    """e^{-x} I_l(x) for l = 0 ... top + 1 in mpmath: the backward recurrence
    I_{l-1} = I_{l+1} + (2l/x) I_l (stable, I_l being its minimal solution)
    from mpmath's two top orders, checked against mpmath's I_0."""
    x = mpmath.mpf(x)
    i = [mpmath.mpf(0)] * top + [mpmath.besseli(top, x), mpmath.besseli(top + 1, x)]
    for l in range(top, 0, -1):
        i[l - 1] = i[l + 1] + 2 * l / x * i[l]
    assert abs(i[0] / mpmath.besseli(0, x) - 1) < mpmath.mpf(10) ** -30
    return [v * mpmath.exp(-x) for v in i]


def _mp_j_squared(z, top):
    """J_k(z)^2 for k = 0 ... top + 1 in mpmath, by the backward recurrence
    J_{k-1} = (2k/z) J_k - J_{k+1} from mpmath's two top orders, checked
    against mpmath's J_0."""
    if z == 0.0:
        return [mpmath.mpf(1)] + [mpmath.mpf(0)] * (top + 1)
    z = mpmath.mpf(z)
    j = [mpmath.mpf(0)] * top + [mpmath.besselj(top, z), mpmath.besselj(top + 1, z)]
    for k in range(top, 0, -1):
        j[k - 1] = 2 * k / z * j[k] - j[k + 1]
    assert abs(j[0] - mpmath.besselj(0, z)) < mpmath.mpf(10) ** -30
    return [v * v for v in j]


def mpmath_sideband_weights(nu, z, x, n_max):
    """The level weights at kappa b = z, summed term by term in mpmath as
    the trap docstring writes them, over -n <= l <= n and not in +-l pairs:
    exp(-x) (x/2)^n sum_l J_{nu-l}(z)^2 / (n_r! (n_r+|l|)!) / S, the
    strength S being the whole series, summed until its terms are below
    1e-25 of it."""
    nu = abs(nu)
    top = max(nu + 100 + math.ceil(x), n_max + 2)
    w, j2 = _mp_scaled_i(x, top), _mp_j_squared(z, nu + top)
    strength = mpmath.fsum([j2[nu] * w[0]] + [
        w[l] * (j2[abs(nu - l)] + j2[nu + l]) for l in range(1, top + 1)])
    # w_l falls with l, by at least half a step from l = x on
    assert 2 * w[top + 1] < mpmath.mpf(10) ** -25 * strength
    inverse_factorial = [1 / mpmath.factorial(k) for k in range(n_max + 1)]
    x = mpmath.mpf(x)
    return [mpmath.exp(-x) * (x / 2) ** n * mpmath.fsum(
        j2[abs(nu - l)] * inverse_factorial[(n - abs(l)) // 2]
        * inverse_factorial[(n + abs(l)) // 2] for l in range(-n, n + 1, 2)) / strength
        for n in range(n_max + 1)]


def test_sideband_weights_match_mpmath():
    # every level of seeded spectra against the 40-digit sum: 5e-13 relative
    # where a weight is at least 1e-290, 1e-300 absolute below, where the
    # float weights lose digits to subnormal rounding
    rng = random.Random(3001)
    checked = 0
    with mpmath.workdps(40):
        for i in range(48):
            beam = make_beam(m=rng.randint(-3, 3), spin=rng.choice((-1, 1)),
                             lam=rng.uniform(350.0, 1000.0), theta=rng.uniform(0.01, 0.3))
            kappa = transverse_wavenumber(beam)
            nu, n_max = rng.randint(-2, 2), (2, 10, 40, MAX_SIDEBAND_LEVEL)[i % 4]
            sigma = math.sqrt(10.0 ** rng.uniform(-6.0, math.log10(744.0))) / kappa
            b = rng.choice((0.0, rng.uniform(0.0, 60.0 / kappa)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                spectrum = sideband_spectrum(beam, nu, b, ca_trap(), sigma, n_max)
            oracle = mpmath_sideband_weights(nu, kappa * b, (kappa * sigma) ** 2, n_max)
            for n, expected in enumerate(oracle):
                got = spectrum.weights[n]
                if expected >= 1e-290:
                    assert abs(got - expected) <= 5e-13 * expected, (nu, b, sigma, n)
                else:
                    assert abs(got - expected) <= 1e-300, (nu, b, sigma, n)
                checked += 1
    assert checked > 2500


def test_level_rows_are_correctly_rounded_normal_doubles():
    # C_n[a] = 1 / (r! (r + a)!), r = (n - a)/2: each entry the double
    # nearest the exact fraction, and every one normal up to the cap
    from fractions import Fraction
    rows = trap_module._level_rows(MAX_SIDEBAND_LEVEL)
    assert len(rows) == MAX_SIDEBAND_LEVEL + 1
    for n, row in enumerate(rows):
        assert row == tuple(float(Fraction(1, math.factorial((n - a) // 2)
                                           * math.factorial((n + a) // 2)))
                            for a in range(n % 2, n + 1, 2))
        assert min(row) >= sys.float_info.min, n
    assert trap_module._level_rows(4) == rows[:5]
    assert 1 / math.factorial(MAX_SIDEBAND_LEVEL + 1) < sys.float_info.min


def test_sideband_weights_at_the_least_subnormal_x():
    # x = (kappa sigma)^2 = 5e-324: halving x for log(x/2) rounds it to 0
    beam = make_beam()
    sigma = 2.2e-162 / transverse_wavenumber(beam)
    assert (transverse_wavenumber(beam) * sigma) ** 2 == 5e-324
    spectrum = sideband_spectrum(beam, -1, 10.0, ca_trap(), sigma, n_max=4)
    assert spectrum.carrier_weight == 1.0
    assert all(0.0 <= spectrum.weights[n] < 1e-300 for n in range(1, 5))


def test_sideband_beyond_carrier_underflow():
    # x = (kappa sigma)^2 > 745: exp(-x) underflows, no level keeps a
    # representable weight and the jump is certain
    beam = make_beam(theta=0.3)
    sigma = 28.0 / transverse_wavenumber(beam)
    with pytest.warns(TruncationWarning):
        spectrum = sideband_spectrum(beam, 1, 10.0, ca_trap(), sigma, n_max=8)
    assert all(w == 0.0 for w in spectrum.weights.values())
    assert spectrum.carrier_weight == 0.0
    assert spectrum.truncation_residual == 1.0
    assert jump_probability_extended(beam, 1, 10.0, ca_trap(), sigma) == 1.0


def test_sideband_shares_jump_domain():
    # the spectrum checks the beam factor out to b + 9 sigma, as the jump does
    beam = make_beam()
    with pytest.raises(DomainError):
        sideband_spectrum(beam, 65, 10.0, ca_trap(), 10.0, n_max=4)
    b_edge = 1e6 / transverse_wavenumber(beam) - 90.0
    with pytest.raises(DomainError):
        sideband_spectrum(beam, 1, b_edge * (1.0 + 1e-9), ca_trap(), 10.0, n_max=4)
    with pytest.raises(NoAbsorptionError):
        sideband_spectrum(make_beam(m=5, spin=1, theta=1e-8), 40, 0.0, ca_trap(), 1e-3,
                          n_max=4)
    for b in (math.nan, math.inf):
        with pytest.raises(DomainError, match="impact parameter"):
            sideband_spectrum(beam, 1, b, ca_trap(), 10.0, n_max=4)


def test_sideband_takes_a_float_b_only():
    # one b per spectrum: an array b is a coded error, not a numpy traceback
    with pytest.raises(DomainError) as err:
        sideband_spectrum(make_beam(), -1, np.array([20.0, 30.0]), ca_trap(), 10.0, 4)
    assert err.value.code == "DOMAIN"


def test_sideband_plane_wave_limit():
    # theta_k = 0: kappa = 0, x = 0 and F = 1 for nu = 0, so only the carrier
    spectrum = sideband_spectrum(make_beam(theta=0.0), 0, 5.0, ca_trap(), 10.0, n_max=4)
    assert spectrum.weights == {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}


def test_sideband_no_negative_levels():
    spectrum = sideband_spectrum(make_beam(), -1, 15.0, ca_trap(), 10.0, n_max=8)
    assert all(n >= 0 for n in spectrum.weights)


def test_sideband_on_axis_single_quantum():
    # b = 0, nu = -1, kappa*sigma << 1: carrier gone, one oscillator quantum
    beam = make_beam(theta=0.001)
    spectrum = sideband_spectrum(beam, -1, 0.0, ca_trap(), 10.0, n_max=6)
    assert spectrum.carrier_weight == pytest.approx(0.0, abs=1e-12)
    assert spectrum.weights[1] == pytest.approx(1.0, abs=1e-4)
    assert spectrum.truncation_residual < 1e-6


def test_sideband_completeness_oracle():
    # the summed weights reconstruct the absorption strength: compare the
    # spectrum's total against the independent <|F|^2> quadrature
    beam = make_beam()
    nu, b, sigma = -1, 10.0, 10.0
    spectrum = sideband_spectrum(beam, nu, b, ca_trap(), sigma, n_max=12)
    total = math.fsum(spectrum.weights.values())
    assert total == pytest.approx(1.0, abs=1e-4)
    assert abs(spectrum.truncation_residual) == pytest.approx(1.0 - total, abs=1e-12)


def test_sideband_azimuthal_coefficients_match_addition_theorem():
    # Graf's addition theorem: about a center offset by b the beam factor
    # decomposes as sum_l J_{nu-l}(kappa b) J_l(kappa s) e^{i l alpha}; the
    # level weights at small kappa*s follow those products squared
    beam = make_beam(theta=0.02)
    nu, b, sigma = -1, 25.0, 8.0
    kappa = transverse_wavenumber(beam)
    spectrum = sideband_spectrum(beam, nu, b, ca_trap(), sigma, n_max=10)
    a = sigma * math.sqrt(2.0)
    # analytic small-argument matrix elements: |<n_r=0,l|F|0>|^2 with
    # J_l(kappa s) ~ (kappa s/2)^l / l! and radial integrals of the 2D HO
    me0 = float(jv(nu, kappa * b))          # l = 0 overlap ~ J_nu(kappa b)
    me1 = float(jv(nu - 1, kappa * b)) * (kappa * a / 2.0)
    me1m = float(jv(nu + 1, kappa * b)) * (kappa * a / 2.0)
    denom = me0**2 + me1**2 + me1m**2
    assert spectrum.carrier_weight == pytest.approx(me0**2 / denom, rel=2e-3)
    assert spectrum.weights[1] == pytest.approx((me1**2 + me1m**2) / denom, rel=2e-3)


def test_sideband_consistency_with_jump_probability():
    rng = np.random.default_rng(59)
    for _ in range(20):
        beam = make_beam(
            m=int(rng.integers(-3, 4)), spin=int(rng.choice([-1, 1])),
            lam=float(rng.uniform(400.0, 900.0)), theta=float(rng.uniform(0.02, 0.25)),
        )
        nu = int(rng.integers(-2, 3))
        b = float(rng.uniform(0.0, 40.0))
        sigma = float(rng.uniform(5.0, 20.0))
        p = jump_probability_extended(beam, nu, b, ca_trap(), sigma)
        spectrum = sideband_spectrum(beam, nu, b, ca_trap(), sigma, n_max=10)
        assert p == pytest.approx(1.0 - spectrum.carrier_weight, abs=1e-6)


def test_sideband_truncation_warning():
    beam = make_beam(theta=0.3, lam=397.0)
    with pytest.warns(TruncationWarning):
        sideband_spectrum(beam, 3, 60.0, ca_trap(), 25.0, n_max=2)


def test_sideband_rejects_bad_inputs():
    beam = make_beam()
    with pytest.raises(DomainError):
        sideband_spectrum(beam, 1, 5.0, ca_trap(), 10.0, n_max=1)
    with pytest.raises(DomainError):
        sideband_spectrum(beam, 1, 5.0, ca_trap(), -1.0, n_max=4)
    with pytest.raises(DomainError):
        jump_probability_extended(beam, 1, -2.0, ca_trap(), 10.0)


def test_sideband_n_max_cap():
    # 170 is where the kernel's factorial rows stay normal doubles (1/170!)
    # and the grid oracle's factorial normalization finite (171! overflows)
    assert MAX_SIDEBAND_LEVEL == 170
    beam = make_beam()
    spectrum = sideband_spectrum(beam, -1, 20.0, ca_trap(), 10.0, n_max=MAX_SIDEBAND_LEVEL)
    assert len(spectrum.weights) == MAX_SIDEBAND_LEVEL + 1
    assert all(math.isfinite(w) and w >= 0.0 for w in spectrum.weights.values())
    assert abs(spectrum.truncation_residual) < 1e-12
    for n_max in (MAX_SIDEBAND_LEVEL + 1, 100_000):
        with pytest.raises(DomainError):
            sideband_spectrum(beam, -1, 20.0, ca_trap(), 10.0, n_max=n_max)


def test_no_absorption_error():
    # nu far above anything the tiny beam overlap can populate: strength
    # underflows to zero
    beam = make_beam(m=5, spin=1, theta=1e-8)
    with pytest.raises(NoAbsorptionError):
        jump_probability_extended(beam, 40, 0.0, ca_trap(), 1e-3)


def test_combined_curve_shape():
    # excitation profile times extended jump probability: zero on the axis,
    # vanishing at large b, one interior maximum region
    from twistkick.transitions import TransitionChannel, sublevel_profile

    beam = make_beam()
    channel = TransitionChannel(2, m_initial=-0.5)
    trap = ca_trap()

    def combined(b):
        excitation = sublevel_profile(beam, channel, -1.5, b)
        return excitation * jump_probability_extended(beam, -1, b, trap, 10.0)

    kappa = transverse_wavenumber(beam)
    bs = np.linspace(0.0, 2.2 * 1.8412 / kappa, 25)
    vals = [combined(float(b)) for b in bs]
    assert vals[0] == 0.0
    interior_max = max(vals)
    assert interior_max > 0.0
    assert vals[-1] < 0.5 * interior_max


# --- the width of the extended-packet series --------------------------------

def packet_draws(seed, count):
    """(beam, nu, b, sigma) across the series' accepted domain: |nu| in
    {0, 1, 2, 64}; x = (kappa sigma)^2 from 0 (sigma = 5e-324) through
    1e-8 ... 630 to just below and above 745, where exp(-x) underflows; b
    uniform below 40 nm or below kappa b = 60 (J from Hankel's expansion
    from 25 on), 0, 1e-300, or at kappa (b + 9 sigma) = 1e6."""
    rng = random.Random(seed)
    for i in range(count):
        beam = make_beam(m=rng.randint(-3, 3), spin=rng.choice((-1, 1)),
                         lam=rng.uniform(350.0, 1000.0), theta=rng.uniform(0.01, 0.3))
        kappa = transverse_wavenumber(beam)
        nu = rng.choice((0, 1, -1, 2, -2, 64, -64))
        x = rng.choice((rng.uniform(0.0, 0.012), 10.0 ** rng.uniform(-8.0, 2.8),
                        rng.uniform(744.0, 746.0)))
        sigma = 5e-324 if i % 5 == 1 else math.sqrt(x) / kappa
        b = rng.choice((rng.uniform(0.0, 40.0), rng.uniform(0.0, 60.0 / kappa), 0.0, 1e-300,
                        1e6 / kappa - 9.0 * sigma))
        while kappa * (b + 9.0 * sigma) > 1e6:
            b = math.nextafter(b, 0.0)
        yield beam, nu, b, sigma


def _outcome(call):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            return np.ravel(np.asarray(call(), dtype=float)).tolist()
    except TwistkickError as err:
        return (err.code, str(err))


def _ulps(a, b):
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def test_packet_series_matches_the_fixed_width_oracle():
    # the proven width against the series summed at max(|nu|, 9 sqrt(x)) + 30:
    # the same errors, and values equal but where the smaller Bessel tables
    # start their recurrences at other orders (5e-14 accuracy, not the tail)
    rng = random.Random(2905)
    calls = []
    for beam, nu, b, sigma in packet_draws(2904, 300):
        n_max = rng.choice((2, 10, 40, MAX_SIDEBAND_LEVEL))
        calls += [
            ("jump", 1.0, functools.partial(
                jump_probability_extended, beam, nu, b, ca_trap(), sigma)),
            ("jump array", 1.0, functools.partial(
                jump_probability_extended, beam, nu, np.array([b, 0.5 * b, 0.0] * 4),
                ca_trap(), sigma)),
            ("sideband", None, lambda beam=beam, nu=nu, b=b, sigma=sigma, n_max=n_max: list(
                sideband_spectrum(beam, nu, b, ca_trap(), sigma, n_max).weights.values())),
        ]
    for _ in range(30):
        overrides = {"sigma_nm": rng.choice((5e-324, 10.0 ** rng.uniform(-3.0, 2.5))),
                     "lambda_nm": rng.uniform(350.0, 1000.0), "theta_k": rng.uniform(0.01, 0.3),
                     "m_gamma": rng.randint(-3, 3)}
        grid = GridSpec(0.0, rng.uniform(1.0, 3000.0), rng.choice((3, 20, 120)))
        spec = SweepSpec("fig7", overrides, grid)
        calls.append(("fig7", 1.0, lambda spec=spec: run_sweep(spec).rows))
    with fixed_width_series():
        oracle = [_outcome(call) for _, _, call in calls]
    differences, values = [], 0
    for (name, scale, call), expected in zip(calls, oracle):
        got = _outcome(call)
        if isinstance(expected, tuple) or isinstance(got, tuple):
            assert got == expected, name
            continue
        assert len(got) == len(expected)
        values += len(got)
        for new, old in zip(got, expected):
            if new != old and not (math.isnan(new) and math.isnan(old)):
                differences.append((name, old, new, _ulps(old, new)))
                assert abs(new - old) <= 1e-13 * (scale or abs(old)), differences[-1]
    # mostly bit-identical; each difference is listed on failure with its ulps
    assert values > 10_000 and len(differences) <= 0.01 * values, differences


def _quarter_binade_edges(lowest, highest):
    # every double (4 + q) 2^(e - 3), q = 0 ... 3, in [lowest, highest], ascending
    return [edge for e in range(-1073, 11) for eighths in range(4, 8)
            if lowest <= (edge := math.ldexp(eighths, e - 3)) <= highest]


def test_half_width_from_its_bracket_is_the_plain_bisection():
    # _half_width bisects only between the cached widths at the ends of x's
    # quarter binade; the oracle bisects the whole range [|nu| + 1, cap].  x
    # runs over a log grid on [5e-324, 745.2] and every quarter-binade edge
    # with its +-1-ulp neighbours.  Below 2^-82 every width is |nu| + 1 (the
    # bound passes at the first width, as the test asserts), so there each
    # edge is checked at one |nu|, taken in turn, which keeps the test < 1 s
    lowest, highest, trivial = 5e-324, 745.2, 2.0 ** -82
    step = (math.log(highest) - math.log(lowest)) / 300
    grid = [lowest, highest] + [math.exp(math.log(lowest) + i * step) for i in range(1, 300)]
    near = [[math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
            for edge in _quarter_binade_edges(lowest, highest)]
    shared = [x for edge in near if edge[1] >= trivial for x in edge]
    in_turn = [edge for edge in near if edge[1] < trivial]
    for nu in range(65):
        xs = sorted(set(grid + shared + [x for edge in in_turn[nu::65] for x in edge]))
        widths = [bisected_half_width(nu, x) for x in xs]
        assert [trap_module._half_width(nu, x) for x in xs] == widths, nu
        assert all(w == nu + 1 for x, w in zip(xs, widths) if x < trivial), nu
        # the property the bracket rests on
        assert all(a <= b for a, b in zip(widths, widths[1:])), nu


def _log_tail_over_strength(nu, x, width):
    # the log of the tail bound u_{width+1} / (1 - r) over the strength's
    # bound exp(-x) (x/2)^m / m! 0.18e-6 of the trap docstring, in mpmath
    m = abs(nu) + 1
    x = mpmath.mpf(x)
    r = x / (2 * (width + 2))
    if r >= 1:
        return mpmath.inf
    return ((width + 1 - m) * mpmath.log(x / 2) + mpmath.loggamma(m + 1)
            - mpmath.loggamma(width + 2) + x * x / (4 * (width + 2)) - mpmath.log1p(-r)
            - mpmath.log(mpmath.mpf("0.18e-6")))


def test_half_width_is_the_smallest_the_bound_admits():
    rng = random.Random(2906)
    budget = -60 * mpmath.log(2)
    cases = [(nu, x) for nu in (0, 1, -2, 64) for x in (0.0, 5e-324, 1e-300, 744.9, 745.1)]
    cases += [(rng.randint(-64, 64), 10.0 ** rng.uniform(-12.0, 2.9)) for _ in range(150)]
    cases += [(rng.randint(-2, 2), rng.uniform(0.0, 0.012)) for _ in range(100)]
    with mpmath.workdps(40):
        for nu, x in cases:
            width, low, cap = trap_module._half_width(nu, x), abs(nu) + 1, fixed_half_width(nu, x)
            assert width == trap_module._half_width(-nu, x) and low <= width <= cap
            if x == 0.0:
                assert width == low
                continue
            assert width == cap or _log_tail_over_strength(nu, x, width) <= budget, (nu, x)
            assert width == low or _log_tail_over_strength(nu, x, width - 1) > budget, (nu, x)
    # the ion's packets (x <= 0.012): at most |nu| + 9, where the cap gave |nu| + 30 or more
    assert max(trap_module._half_width(nu, 0.012) - abs(nu) for nu in range(-2, 3)) == 9


def test_dropped_tail_is_below_the_documented_bound():
    # the terms the fixed width keeps and the proven width drops, from one
    # table each (the oracle strength minus the new strength, free of the
    # rounding of two sums): below 2^-60 of the strength, and their weights
    # below the geometric bound u_{L+1} / (1 - r)
    checked = 0
    for beam, nu, b, sigma in packet_draws(2907, 400):
        kappa = transverse_wavenumber(beam)
        x = (kappa * sigma) ** 2
        width, wide = trap_module._half_width(nu, x), fixed_half_width(nu, x)
        if math.exp(-x) == 0.0:
            continue
        j_sq = (bessel_j_orders(abs(nu) + wide, kappa * b) ** 2).tolist()
        w = bessel_i_scaled_orders(wide, x)
        terms = [j_sq[abs(nu)] * w[0]] + [
            w[l] * (j_sq[abs(nu - l)] + j_sq[abs(nu + l)]) for l in range(1, wide + 1)]
        kept, dropped = math.fsum(terms[:width + 1]), math.fsum(terms[width + 1:])
        if kept == 0.0:  # no absorption: the strength underflows
            continue
        assert dropped <= 2.0 ** -60 * kept, (nu, x, b)
        if width < wide and x > 0.0:
            r = x / (2.0 * width + 4.0)
            bound = math.exp((width + 1) * math.log(0.5 * x) - math.lgamma(width + 2)
                             + x * x / (4.0 * (width + 2)) - x) / (1.0 - r)
            # the tables' 5e-14 relative error, where the bound is sharp
            assert math.fsum(w[width + 1:]) <= bound * (1.0 + 1e-12), (nu, x)
            assert dropped <= bound * (1.0 + 1e-12)
        checked += 1
    assert checked > 200


def test_capped_width_drops_below_the_documented_share():
    # where the width is the cap max(|nu|, 9 sqrt(x)) + 30 (x from ~20 to
    # 745) no proof bounds what it drops, so this test does: the tail
    # sum_{|l|>L} J_{nu-l}(z)^2 e^{-x} I_l(x) in mpmath, below 2^-60 of the
    # strength at z = kappa b in {0, 1, 25, 1e3, 1e6}
    top, capped = 700, 0
    with mpmath.workdps(40):
        j_sq = {z: _mp_j_squared(z, 64 + top) for z in (0.0, 1.0, 25.0, 1e3, 1e6)}
        for x in (20.0, 22.0, 25.0, 30.0, 35.0, 50.0, 100.0, 200.0, 400.0, 600.0, 744.9):
            w = _mp_scaled_i(x, top)
            for nu in (0, 2, 64):
                width = trap_module._half_width(nu, x)
                if width < fixed_half_width(nu, x):
                    continue
                for z, j2 in j_sq.items():
                    terms = [j2[nu] * w[0]] + [w[l] * (j2[abs(nu - l)] + j2[nu + l])
                                               for l in range(1, top + 1)]
                    strength, dropped = mpmath.fsum(terms[:width + 1]), mpmath.fsum(
                        terms[width + 1:])
                    assert terms[-1] < mpmath.mpf(10) ** -40 * strength  # summed to the end
                    assert dropped <= mpmath.mpf(2) ** -60 * strength, (nu, x, z)
                capped += 1
    # every (nu, x) from x = 35 on, and some below
    assert capped >= 24


def test_scaled_bessel_i_tail_bound_against_mpmath():
    # sum_{l > L} e^{-x} I_l(x) <= u_{L+1} / (1 - r), summed to convergence
    rng = random.Random(2908)
    cases = [(rng.randint(0, 64), 10.0 ** rng.uniform(-10.0, 1.4)) for _ in range(25)]
    with mpmath.workdps(30):
        for nu, x in cases:
            width = trap_module._half_width(nu, x)
            if width == fixed_half_width(nu, x):
                continue
            x = mpmath.mpf(x)
            tail = mpmath.nsum(lambda l: mpmath.besseli(l, x), [width + 1, mpmath.inf])
            r = x / (2 * (width + 2))
            bound = (x / 2) ** (width + 1) / mpmath.factorial(width + 1) \
                * mpmath.exp(x * x / (4 * (width + 2))) / (1 - r)
            assert tail <= bound, (nu, x)


def test_j0_squared_plus_j1_squared_bounds_the_strength():
    # J_0^2 + J_1^2 falls with z (its derivative is -2 J_1^2 / z, from
    # J_0' = -J_1 and J_1' = J_0 - J_1 / z), so its value at the right end of
    # each octave [2^k, 2^(k+1)] bounds it on the octave: at least
    # 0.18 min(1, 1/z) for 0 < z <= 2^20 > 1e6
    def f(z):
        return mpmath.besselj(0, z) ** 2 + mpmath.besselj(1, z) ** 2

    with mpmath.workdps(30):
        for z in (mpmath.mpf("1e-3"), mpmath.mpf("0.7"), mpmath.mpf(3), mpmath.mpf(1234.5)):
            assert mpmath.diff(f, z) == pytest.approx(
                -2 * mpmath.besselj(1, z) ** 2 / z, rel=1e-20, abs=1e-25)
        assert f(1) >= 0.18
        for k in range(20):
            assert f(mpmath.mpf(2) ** (k + 1)) >= mpmath.mpf("0.18") / 2 ** k, k


def test_packet_strength_adds_left_to_right():
    # numpy-free: the float path's strength is the left-to-right fold of its
    # terms (the builtin sum of floats compensates since Python 3.12, which
    # a column of the array path does not)
    rng = random.Random(2909)
    for _ in range(3000):
        beam = make_beam(m=rng.randint(-3, 3), spin=rng.choice((-1, 1)),
                         lam=rng.uniform(350.0, 1000.0), theta=rng.uniform(0.01, 0.3))
        kappa = transverse_wavenumber(beam)
        nu = rng.randint(-3, 3)
        sigma = math.sqrt(10.0 ** rng.uniform(-6.0, 2.0)) / kappa
        b = rng.uniform(0.0, 40.0 / kappa)
        j_sq, _, x, strength, _ = trap_module._packet_series(beam, nu, b, sigma)
        assert isinstance(j_sq, list)
        width, w = trap_module._packet_weights(abs(nu), x)
        pairs = functools.reduce(operator.add, [
            w[l] * (j_sq[abs(nu - l)] + j_sq[abs(nu + l)]) for l in range(1, width + 1)])
        assert strength == j_sq[abs(nu)] * w[0] + pairs
