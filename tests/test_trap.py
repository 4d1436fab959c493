import math

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import eval_genlaguerre, jv

from twistkick.beam import DEFAULT_PITCH_ANGLE, TwistedPhotonBeam, superkick, \
    transverse_wavenumber
from twistkick.errors import DomainError, NoAbsorptionError, TruncationWarning
from twistkick.pair_production import small_angle_threshold
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
    with pytest.raises(DomainError, match="a non-finite value"):
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
    # the log-space series has no overflow; 170 is where the grid oracle's
    # factorial normalization still is finite (171! overflows a double)
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
