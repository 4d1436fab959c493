import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import bisection_first_lobe_peak_argument
from twistkick import beam, pair_production, special_functions
from twistkick.errors import DomainError, SolverError, TwistkickError
from twistkick.pair_production import (
    PairThresholdQuery,
    crossover_product,
    fit_beam_for_threshold_factor,
    pair_threshold,
    plane_wave_threshold,
    small_angle_threshold,
)
from twistkick.sweeps import SweepSpec, run_sweep
from twistkick.units import ELECTRON_MASS_EV, FM, GEV, HBARC_EV_NM, MEV, PM


def test_plane_wave_threshold_green_light():
    # 2.5 eV background: 104.4 GeV, the "about 100 GeV" scale
    value = plane_wave_threshold(2.5)
    assert value == pytest.approx(104.44 * GEV, rel=1e-3)
    assert abs(value - 100.0 * GEV) / value < 0.05


def test_plane_wave_threshold_scaling():
    assert plane_wave_threshold(5.0) == pytest.approx(
        0.5 * plane_wave_threshold(2.5), rel=1e-12
    )


def test_plane_wave_threshold_symmetric_point():
    assert plane_wave_threshold(ELECTRON_MASS_EV) == pytest.approx(
        ELECTRON_MASS_EV, rel=1e-15
    )


def test_pair_threshold_array_matches_float_calls():
    # a query of impact parameters (fig8a) or of pitch angles (fig8b): each
    # element of every field equals the float call bit for bit
    b = np.geomspace(1e-8, 1e3, 40)
    theta = np.concatenate([[0.0, 1e-300], np.geomspace(1e-9, 1.5, 40)])
    for omega2 in (2.5, 1e-3, 1e5):
        for l_gamma in (0, 1, 3):
            query = dict(omega2=omega2, pitch_angle=5e-6, impact_parameter=2e-4,
                         l_gamma=l_gamma)
            for field, points in (("impact_parameter", b), ("pitch_angle", theta)):
                solution = pair_threshold(PairThresholdQuery(**dict(query, **{field: points})))
                floats = [pair_threshold(PairThresholdQuery(**dict(query, **{field: v})))
                          for v in points.tolist()]
                for name in ("photon_energy", "p_z", "p_T", "recoil_energy"):
                    column = np.broadcast_to(getattr(solution, name), points.shape)
                    assert column.tolist() == [getattr(f, name) for f in floats], name


@pytest.mark.parametrize("field, bad", [
    ("impact_parameter", 0.0), ("impact_parameter", -1.0), ("impact_parameter", math.nan),
    ("impact_parameter", 1e-306),  # the superkick is too large to square
    ("pitch_angle", -1e-6), ("pitch_angle", math.nan), ("pitch_angle", 1.6),
])
@pytest.mark.filterwarnings("error")  # an overflowing kick raises no numpy warning
def test_pair_threshold_array_raises_where_a_float_call_raises(field, bad):
    query = dict(omega2=2.5, pitch_angle=5e-6, impact_parameter=2e-4, l_gamma=1)
    with pytest.raises(DomainError):
        pair_threshold(PairThresholdQuery(**dict(query, **{field: bad})))
    with pytest.raises(DomainError):
        pair_threshold(PairThresholdQuery(**dict(query, **{field: np.array([query[field], bad])})))


def quadratic_oracle(omega2, theta, p_t):
    """Independent root via the numpy companion-matrix solver."""
    roots = np.roots([
        math.sin(theta) ** 2, 4.0 * omega2,
        -(4.0 * ELECTRON_MASS_EV**2 + p_t**2),
    ])
    positive = [float(r.real) for r in roots if abs(r.imag) < 1e-6 and r.real > 0]
    return min(positive)


def test_pair_threshold_fig8_point():
    query = PairThresholdQuery(
        omega2=2.5, pitch_angle=5e-6, impact_parameter=200.0 * FM, l_gamma=1
    )
    solution = pair_threshold(query)
    assert solution.p_T == pytest.approx(0.9866 * MEV, rel=1e-3)
    oracle = quadratic_oracle(2.5, 5e-6, solution.p_T)
    assert solution.photon_energy == pytest.approx(oracle, rel=1e-9)
    assert solution.photon_energy == pytest.approx(147.0 * GEV, rel=0.01)
    assert solution.p_z == pytest.approx(solution.photon_energy * math.cos(5e-6), rel=1e-15)


def test_pair_threshold_degenerate_plane_wave_limit():
    query = PairThresholdQuery(omega2=2.5, pitch_angle=0.0)
    solution = pair_threshold(query)
    assert solution.photon_energy == pytest.approx(plane_wave_threshold(2.5), rel=1e-9)
    assert solution.recoil_energy == 0.0


def test_pair_threshold_equality_residual():
    rng = np.random.default_rng(61)
    for _ in range(300):
        query = PairThresholdQuery(
            omega2=float(10.0 ** rng.uniform(-1, 1)),
            pitch_angle=float(10.0 ** rng.uniform(-8, -3)),
            impact_parameter=float(10.0 ** rng.uniform(-6, -3)),
            l_gamma=int(rng.integers(1, 4)),
        )
        sol = pair_threshold(query)
        w1 = sol.photon_energy
        lhs = w1**2 * math.sin(query.pitch_angle) ** 2 + 4.0 * w1 * query.omega2
        rhs = 4.0 * ELECTRON_MASS_EV**2 + sol.p_T**2
        assert abs(lhs - rhs) <= 1e-10 * rhs


def test_pair_threshold_monotonicity():
    thresholds_b = [
        pair_threshold(PairThresholdQuery(2.5, 5e-6, b * FM, 1)).photon_energy
        for b in np.geomspace(20.0, 2000.0, 30)
    ]
    assert all(a > b for a, b in zip(thresholds_b, thresholds_b[1:]))
    thresholds_t = [
        pair_threshold(PairThresholdQuery(2.5, t * 1e-6, 200.0 * FM, 1)).photon_energy
        for t in np.geomspace(0.5, 50.0, 30)
    ]
    assert all(a > b for a, b in zip(thresholds_t, thresholds_t[1:]))


def test_small_angle_agreement_bound():
    # full quadratic vs small-angle form: relative difference bounded by
    # theta^2 * w1 / (4 w2) for theta <= 1e-5
    for theta in (1e-7, 1e-6, 5e-6, 1e-5):
        for b_fm in (50.0, 200.0, 1000.0):
            query = PairThresholdQuery(2.5, theta, b_fm * FM, 1)
            full = pair_threshold(query).photon_energy
            small = small_angle_threshold(2.5, query.l_gamma * HBARC_EV_NM / query.impact_parameter)
            bound = theta**2 * small / (4.0 * 2.5)
            assert abs(full - small) / small <= bound * (1.0 + 1e-9)


def test_small_angle_tenfold_exact():
    # p_T = 6 m_e gives exactly 10x the plane-wave threshold; the identity is
    # exact in rational arithmetic and holds to a few ulp in floats
    m = Fraction(510998950000, 10**6)
    w2 = Fraction(5, 2)
    assert (m**2 / w2 + (6 * m) ** 2 / (4 * w2)) == 10 * m**2 / w2
    value = small_angle_threshold(2.5, 6.0 * ELECTRON_MASS_EV)
    assert value == pytest.approx(10.0 * plane_wave_threshold(2.5), rel=1e-14)


def test_small_angle_reduces_to_plane_wave():
    assert small_angle_threshold(2.5, 0.0) == plane_wave_threshold(2.5)


def test_small_angle_two_me():
    assert small_angle_threshold(2.5, 2.0 * ELECTRON_MASS_EV) == pytest.approx(
        2.0 * plane_wave_threshold(2.5), rel=1e-12
    )


def test_crossover_quotable_and_analytic():
    result = crossover_product(2.5, 1)
    product_pm_urad = result.product / (PM * 1e-6)
    assert abs(product_pm_urad - 2.0) / 2.0 < 0.15
    analytic = HBARC_EV_NM * 2.5 / ELECTRON_MASS_EV**2
    assert result.product == pytest.approx(analytic, rel=0.02)
    assert result.relative_variation < 1e-9


def test_crossover_linear_in_l_gamma():
    one = crossover_product(2.5, 1).product
    two = crossover_product(2.5, 2).product
    assert two == pytest.approx(2.0 * one, rel=0.02)


def test_crossover_requires_orbital_am():
    with pytest.raises(DomainError):
        crossover_product(2.5, 0)


@pytest.mark.parametrize("pitch_angles", [
    (), (0.0, 1e-6), (1e-6, -1e-6), (1e-6, 0.5 * math.pi), (math.nan,), (math.inf,),
])
def test_crossover_rejects_bad_pitch_angles(pitch_angles):
    with pytest.raises(DomainError) as err:
        crossover_product(2.5, 1, pitch_angles)
    assert err.value.code == "DOMAIN"



@pytest.mark.parametrize("single, named", [
    (2.5, "float"), (1e-6, "float"), (1, "int"), (None, "NoneType"),
    (np.array(1e-6), "ndarray of float64"),
])
def test_crossover_single_pitch_angle_is_a_domain_error(single, named):
    # a number is no sequence of angles; it raised "'float' object is not iterable"
    with pytest.raises(DomainError) as err:
        crossover_product(2.5, 1, single)
    assert (err.value.code, str(err.value)) == (
        "DOMAIN", f"pitch angles must be a sequence of real numbers, got {named}")
    assert crossover_product(2.5, 1, [1e-6]) == crossover_product(2.5, 1, (1e-6,))


def test_crossover_closed_form():
    # b*theta_k = l hbar c w2/m_e^2 * theta_k/sin(theta_k); the spread over
    # the default decade is (1e-10 - 1e-12)/6 to leading order
    result = crossover_product(2.5, 2, (1e-6, 0.5))
    invariant = 2.0 * HBARC_EV_NM * 2.5 / ELECTRON_MASS_EV**2
    assert result.product == pytest.approx(
        0.5 * invariant * (1e-6 / math.sin(1e-6) + 0.5 / math.sin(0.5)), rel=1e-15, abs=0.0)
    assert crossover_product(2.5, 1).relative_variation == pytest.approx(
        (1e-10 - 1e-12) / 6.0, rel=1e-3, abs=0.0)


def test_fit_tenfold():
    fit = fit_beam_for_threshold_factor(10.0, 2.5)
    assert fit.p_T == pytest.approx(6.0 * ELECTRON_MASS_EV, rel=1e-15)
    oracle_b = HBARC_EV_NM / (6.0 * ELECTRON_MASS_EV)
    assert fit.impact_parameter == pytest.approx(oracle_b, rel=0.01)
    assert fit.impact_parameter == pytest.approx(64.4 * FM, rel=0.01)
    # the suggested (theta_k, w0) must actually peak the profile at b
    assert fit.peak_radius == pytest.approx(fit.impact_parameter, rel=1e-4)
    assert fit.photon_energy == pytest.approx(10.0 * plane_wave_threshold(2.5), rel=1e-12)


@pytest.mark.parametrize("factor", [1.5, 10.0, 1e4, 1e10, 1e20, 1e30])
def test_fit_peaks_at_b_for_every_factor(factor):
    # the pitch angle falls like 1/factor; an absolute root tolerance would
    # stop at the kappa -> 0 limit, where the profile peaks at sqrt(2) b
    fit = fit_beam_for_threshold_factor(factor, 2.5)
    assert abs(fit.peak_radius - fit.impact_parameter) <= 1e-6 * fit.impact_parameter


def test_fit_factor_to_one_unbounded():
    fit = fit_beam_for_threshold_factor(1.0 + 1e-10, 2.5)
    assert fit.p_T == pytest.approx(2.0 * ELECTRON_MASS_EV * 1e-5, rel=1e-6)
    assert fit.impact_parameter > 1e5 * fit_beam_for_threshold_factor(10.0, 2.5).impact_parameter
    with pytest.raises(DomainError):
        fit_beam_for_threshold_factor(1.0, 2.5)


def test_fit_names_a_nan_factor_without_spelling_it():
    with pytest.raises(DomainError) as err:
        fit_beam_for_threshold_factor(math.nan, 2.5)
    assert str(err.value) == ("threshold factor must be greater than 1 and finite, "
                              "got a value that is not a number")


@pytest.mark.parametrize("call, finite_call, finite_message", [
    (lambda x: plane_wave_threshold(x), lambda: plane_wave_threshold(-2.5),
     "omega2 must be positive and finite, got -2.5"),
    (lambda x: fit_beam_for_threshold_factor(10.0, x), lambda: fit_beam_for_threshold_factor(
        10.0, 0.0), "omega2 must be positive and finite, got 0.0"),
    (lambda x: fit_beam_for_threshold_factor(10.0, 2.5, 1, x),
     lambda: fit_beam_for_threshold_factor(10.0, 2.5, 1, -0.5),
     "w0/b must be positive and finite, got -0.5"),
    (lambda x: beam.superkick(x, 1.0), lambda: beam.superkick(-1.5, 1.0),
     "delta_l must be a non-negative integer, got -1.5"),
], ids=["plane_wave_threshold", "fit-omega2", "fit-w0_over_b", "superkick"])
def test_nan_inputs_are_named_without_spelling_them(call, finite_call, finite_message):
    # a NaN input is a coded DOMAIN error whose text names it through
    # errors.shown rather than spelling "nan"; a finite input's message is
    # the value as before
    with pytest.raises(DomainError) as err:
        call(math.nan)
    assert err.value.code == "DOMAIN"
    assert "nan" not in str(err.value).lower()
    assert str(err.value).endswith("got a value that is not a number")
    with pytest.raises(DomainError) as err:
        finite_call()
    assert str(err.value) == finite_message


def test_query_validation():
    with pytest.raises(DomainError):
        PairThresholdQuery(omega2=0.0, pitch_angle=0.0)
    with pytest.raises(DomainError) as err:
        PairThresholdQuery(omega2=2.5, pitch_angle=1e-6, l_gamma=1)
    assert err.value.code == "B_SINGULARITY"


@pytest.mark.parametrize("field, value", [
    ("omega2", math.inf), ("omega2", math.nan),
    ("pitch_angle", math.inf), ("pitch_angle", math.nan),
    ("impact_parameter", math.inf), ("impact_parameter", math.nan),
])
def test_query_rejects_non_finite_inputs(field, value):
    inputs = {"omega2": 2.5, "pitch_angle": 1e-6, "impact_parameter": 200.0 * FM,
              "l_gamma": 1}
    inputs[field] = value
    with pytest.raises(DomainError) as err:
        PairThresholdQuery(**inputs)
    assert err.value.code == "DOMAIN"


@pytest.mark.parametrize("omega2", [math.inf, math.nan, -math.inf])
def test_crossover_rejects_non_finite_omega2(omega2):
    with pytest.raises(DomainError) as err:
        crossover_product(omega2, 1)
    assert err.value.code == "DOMAIN"


@pytest.mark.parametrize("w0_over_b", [0.5, 1.0, 1.4142])
def test_fit_without_interior_peak_is_fit_error(w0_over_b):
    # l_gamma = 1 <= 2 b^2/w0^2: the envelope pulls the peak inside b
    with pytest.raises(SolverError) as err:
        fit_beam_for_threshold_factor(10.0, 2.5, 1, w0_over_b)
    assert err.value.code == "FIT"


def test_fit_pitch_angle_above_one_radian_is_fit_error():
    with pytest.raises(SolverError) as err:
        fit_beam_for_threshold_factor(10.0, 1e6)
    assert err.value.code == "FIT"


def test_fit_highest_bessel_order():
    fit = fit_beam_for_threshold_factor(10.0, 2.5, 64)
    assert abs(fit.peak_radius - fit.impact_parameter) <= 1e-7 * fit.impact_parameter


@pytest.mark.parametrize("offset, fails", [(5e-8, False), (-5e-8, False),
                                           (2e-7, True), (-0.4, True)])
def test_fit_checks_global_peak_against_b(monkeypatch, offset, fails):
    b = HBARC_EV_NM / (6.0 * ELECTRON_MASS_EV)
    monkeypatch.setattr(pair_production, "profile_peak_radius",
                        lambda beam: b * (1.0 + offset))
    if fails:
        with pytest.raises(SolverError) as err:
            fit_beam_for_threshold_factor(10.0, 2.5)
        assert err.value.code == "FIT"
    else:
        assert fit_beam_for_threshold_factor(10.0, 2.5).peak_radius == b * (1.0 + offset)


@pytest.mark.parametrize("l_gamma, w0_over_b", [(5, 1000.0), (1, 1e4), (64, 10.0), (5, 1e5)])
def test_fit_wide_envelope_peaks_at_b(l_gamma, w0_over_b):
    fit = fit_beam_for_threshold_factor(10.0, 2.5, l_gamma, w0_over_b)
    assert abs(fit.peak_radius - fit.impact_parameter) <= 1e-12 * fit.impact_parameter


def _force_rule(monkeypatch, on_floats):
    # the float-or-array rule of the fit's grid, forced (numpy is loaded here)
    monkeypatch.setattr(pair_production, "on_floats", lambda count, most: on_floats)


def test_fit_grid_check_sees_a_larger_lobe_than_b(monkeypatch):
    # a root on the second lobe of J_1 that the peak search confirms: only
    # the grid of the fitted profile sees that the first lobe is larger, on
    # Python floats as on the array, naming the same radius
    b = HBARC_EV_NM / (6.0 * ELECTRON_MASS_EV)
    monkeypatch.setattr(pair_production, "first_lobe_peak_argument",
                        lambda l_gamma, envelope_slope: 5.3314)
    monkeypatch.setattr(pair_production, "profile_peak_radius", lambda beam: b)
    messages = []
    for on_floats in (True, False):
        _force_rule(monkeypatch, on_floats)
        with pytest.raises(SolverError) as err:
            fit_beam_for_threshold_factor(10.0, 2.5)
        assert err.value.code == "FIT"
        assert "fitted profile is larger at" in str(err.value)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def _flag_range_fit_draws(count=40, seed=25):
    # (factor, omega2, l_gamma, w0/b) over the range of each beam-fit flag:
    # factors from just above 1, omega2 over seven decades, every order and
    # envelopes from just wide enough for an interior peak to 1e5 b
    rng = random.Random(seed)
    draws = [(10.0, 2.5, 1, 2.0), (10.0, 2.5, 2, 2.5), (10.0, 2.5, 64, 2.0),
             (10.0, 1e6, 1, 2.0), (10.0, 2.5, 1, 1.0)]  # two FIT errors
    for _ in range(count):
        l_gamma = rng.choice([1, 2, rng.randint(1, 64)])
        draws.append((1.0 + 10.0 ** rng.uniform(-6.0, 6.0), 10.0 ** rng.uniform(-3.0, 4.0),
                      l_gamma, math.sqrt(2.0 / l_gamma) * math.exp(rng.uniform(0.01, 12.0))))
    return draws


def test_fit_grid_on_floats_is_the_array_grid(monkeypatch):
    # seeded fits over every beam-fit flag's range give the same result or
    # error with the grid on Python floats as on the array; and on each
    # grid a fit checks, both hold the same radii bit for bit, the same
    # first maximum, and amplitudes within 2 ulps (math.exp and numpy.exp
    # may round the envelope apart)
    checked = []
    profile_grid = pair_production._profile_grid

    def recorded(beam_, end):
        checked.append((beam_, end))
        return profile_grid(beam_, end)

    monkeypatch.setattr(pair_production, "_profile_grid", recorded)
    for draw in _flag_range_fit_draws():
        outcomes = []
        for on_floats in (True, False):
            _force_rule(monkeypatch, on_floats)
            outcomes.append(_fit_outcome(draw))
        assert outcomes[0] == outcomes[1], draw
    assert len(checked) > 80  # two calls a draw that reaches the grid
    for beam_, end in checked[::2]:
        _force_rule(monkeypatch, True)
        rho, grid, top = profile_grid(beam_, end)
        _force_rule(monkeypatch, False)
        rho_array, grid_array, top_array = profile_grid(beam_, end)
        assert type(rho) is list and {type(v) for v in grid} == {float}
        assert repr(rho) == repr(rho_array.tolist())
        assert grid.index(top) == int(np.argmax(grid_array)), beam_
        ulps = np.abs(np.array(grid).view(np.int64) - grid_array.view(np.int64))
        assert ulps.max() <= 2, beam_


@pytest.mark.parametrize("call", [
    lambda l_gamma: crossover_product(2.5, l_gamma),
    lambda l_gamma: pair_threshold(PairThresholdQuery(2.5, 1e-6, 1e-4, l_gamma)),
    lambda l_gamma: fit_beam_for_threshold_factor(10.0, 2.5, l_gamma),
], ids=["crossover_product", "pair_threshold", "fit_beam_for_threshold_factor"])
@pytest.mark.parametrize("l_gamma", [1.5, math.nan, pytest.param(10**400, id="10**400")])
def test_non_integer_l_gamma_is_domain_error(call, l_gamma):
    with pytest.raises(DomainError) as err:
        call(l_gamma)
    assert err.value.code == "DOMAIN"
    assert "l_gamma" in str(err.value)
    assert "nan" not in str(err.value).lower()


def _fit_draws(count=60, seed=22):
    # (factor, omega2, l_gamma, w0/b) over the fit's range: an interior peak
    # needs l (w0/b)^2 > 2; some draws fail FIT on the pitch angle
    rng = random.Random(seed)
    draws = [(2.0 * 50.0 ** (k / 4), 0.5 * 20.0 ** (k / 4), 1, 2.0) for k in range(5)]
    for _ in range(count):
        l_gamma = rng.randint(1, 8)
        draws.append((1.0 + 10.0 ** rng.uniform(-2.0, 4.0), 10.0 ** rng.uniform(-2.0, 2.0),
                      l_gamma, math.sqrt(2.0 / l_gamma) * math.exp(rng.uniform(0.01, 3.0))))
    return draws


def _fit_outcome(draw):
    try:
        return repr(fit_beam_for_threshold_factor(*draw))
    except TwistkickError as err:
        return err.code, str(err)


def test_fit_and_pair_table_are_those_of_the_bisection_root(monkeypatch):
    # every fit, profile peak and pair_table row bit for bit, and every
    # failure with the same code and message
    def outcomes():
        return ([_fit_outcome(draw) for draw in _fit_draws()],
                repr([run_sweep(SweepSpec("pair_table", overrides={"omega2_ev": w})).rows
                      for w in (0.5, 2.5, 10.0)]))

    fits, tables = outcomes()
    assert sum(isinstance(fit, str) for fit in fits) > 40
    for module in (pair_production, beam):
        monkeypatch.setattr(module, "first_lobe_peak_argument",
                            bisection_first_lobe_peak_argument)
    assert outcomes() == (fits, tables)


def test_fit_roots_take_fewer_ratio_evaluations_than_bisection(monkeypatch):
    # ITP keeps the bisection's bracket and end; it must need at most 24
    # ratio evaluations a root on average (bisection: about 54), and never
    # more than 3 beyond the bisection's count
    calls = [0]
    ratio = special_functions._lobe_ratio

    def counted(*args):
        calls[0] += 1
        return ratio(*args)

    counts = []

    def recorded(l_gamma, envelope_slope):
        calls[0] = 0
        x = special_functions.first_lobe_peak_argument(l_gamma, envelope_slope)
        itp, calls[0] = calls[0], 0
        assert x.hex() == bisection_first_lobe_peak_argument(l_gamma, envelope_slope).hex()
        counts.append((itp, calls[0]))
        return x

    monkeypatch.setattr(special_functions, "_lobe_ratio", counted)
    for module in (pair_production, beam):
        monkeypatch.setattr(module, "first_lobe_peak_argument", recorded)
    for draw in _fit_draws():
        _fit_outcome(draw)
    assert len(counts) > 100
    assert sum(itp for itp, _ in counts) <= 24 * len(counts)
    assert all(itp <= bisection + 3 for itp, bisection in counts)


@pytest.mark.filterwarnings("error")
def test_fit_of_a_huge_envelope_raises_before_kappa_rho_overflows():
    # with numpy loaded the grid ran kappa * rho on an array and warned
    # "overflow encountered in multiply" before its DOMAIN error
    with pytest.raises(DomainError) as err:
        fit_beam_for_threshold_factor(10.0, 2.5, 1, 1.7e308)
    assert str(err.value) == ("Bessel argument |x| <= 1e+06 supported, "
                              "got a non-finite value (an input overflows)")
