"""Command-line front end: one subcommand per physics question, emitting CSV
(default) or JSON to stdout or a file.

Conventions: every physical flag carries its unit in the flag name
(--b-nm, --omega2-ev, --pitch-urad, ...); stdout carries only data and all
diagnostics go to stderr with a machine-readable code.  Exit codes: 0 on
success, 1 on usage errors, 2 on numerical/physical errors.  CSV output uses
a ``name [unit]`` header row, 12-significant-digit scientific notation, '.'
decimal separator and LF line endings; the JSON form (``indent=2``) carries
the float of each CSV value, so both hold the same 12-digit values.

Each table is written by one ``%`` operation over its values flattened row
by row: CSV by a ``"%.11e"`` template for the whole table, JSON by a
``"%.12g"`` template whose slots also carry the ``indent=2`` row layout.
For a normal double, ``%.12g`` gives the same 12 correctly rounded digits as
the CSV text, without trailing zeros, and those digits are exactly ``repr``
of the CSV value parsed back: a decimal of at most 15 significant digits
survives the round trip, so no shorter digit string maps to the same float.
The two spellings differ in four classes only: values that round to an
integer, +-0 included (``repr`` adds ".0"), 1e12 <= |x| < 1e16 (``%g``
switches to exponent form there and ``repr`` does not), subnormals
(``repr`` is shorter), and NaN and +-inf (JSON spells them NaN and
Infinity).  Once numpy is loaded, a numpy mask finds a superset of these
values, and each of them is written as ``json.dumps`` of its CSV value
parsed back.  That spelling is right for every value, so a table written
while numpy is not loaded takes it for all of its values and needs no numpy,
whose import costs ~0.1 s; the text is the same either way.  ``json`` too is
imported on first use, so a CSV call never loads it.

``am-transfer`` and ``recoil-ratio`` run through ``sweeps._am_columns``
on the ``units._linspace`` grid, which equals ``numpy.linspace`` bit for
bit; ``units`` documents when a table runs on Python floats.

Each subcommand is declared once, in ``_COMMANDS``, and each of its flags
once, in the parameter table of :mod:`twistkick.sweeps` (``_PARAMETERS``),
which also declares the figure parameters that ``reproduce --set`` takes:
its unit, help words and default.  A subcommand lists its flags by name, in
the order of its help and of its JSON metadata, and gives its own default
only where subcommands differ (``trap-jump`` and ``sidebands`` take the
729 nm line of 40Ca+, as fig7 does).  Parsing reads an int flag as an int
and a float flag as a finite float, and checks ``--count`` against its
range and the choices of ``--multipole-j`` and ``--lambda-spin`` (a usage
error, status 1, otherwise); every other range is the library's to check
(status 2).

A call whose first argument is a subcommand's name builds the parser of
that subcommand alone, about half the cost of all eleven; any other call
(``--help``, ``--version``, an unknown or no subcommand) builds the full
parser.  The output is the same bytes either way: a subcommand's usage,
help and errors do not depend on its siblings, and the ``COMMAND`` metavar
keeps the list of subcommands out of every usage line.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from functools import partial
from itertools import chain

from . import __version__
from .beam import TwistedPhotonBeam, superkick
from .errors import DomainError, TruncationWarning, TwistkickError
from .pair_production import PairThresholdQuery, crossover_product, \
    fit_beam_for_threshold_factor, pair_threshold, plane_wave_threshold
from .recoil_kinematics import TargetParticle, absorption_energy, \
    deuteron_threshold, focus_fraction, ratio_cut_radius, transverse_recoil_energy
from .sweeps import _ION_LINE, _PARAMETERS, FIGURE_IDS, GridSpec, SweepResult, SweepSpec, \
    _am_columns, run_sweep
from .transitions import TransitionChannel, _ratio_from_partition
from .trap import TrapModel, jump_probability_extended, jump_probability_point, \
    sideband_spectrum
from .units import FM, GEV, HBARC_EV_NM, KEV, MEV, NEV, PM, RANGES, _linspace, check, \
    nonrel_recoil_energy, wavelength_to_energy


def result_to_csv(result: SweepResult) -> str:
    header = ",".join(f"{name} [{unit}]" for name, unit in result.columns)
    line = ",".join(["%.11e"] * len(result.columns)) + "\n"
    return header + "\n" + (line * len(result.rows)) % tuple(chain.from_iterable(result.rows))


def _needs_repr(values: tuple) -> list[int]:
    """The indices of the values ``%.12g`` may spell otherwise than ``repr``
    of their CSV float, with a margin for the rounding to 12 digits: values
    that round to an integer below 1e16 (``repr`` adds ".0"; every |x| >=
    2.5e10 is within 2e-11 |x| of one, so this takes in 1e12 <= |x| < 1e16,
    where ``%g`` switches to exponent form and ``repr`` does not), subnormals
    and zeros, and non-finite values."""
    import numpy as np
    x = np.abs(np.array(values, dtype=float))
    with np.errstate(invalid="ignore"):
        return np.flatnonzero(
            ((x >= 0.5) & (x < 1.01e16) & (np.abs(x - np.rint(x)) <= 2e-11 * x))
            | (x < 2.3e-308) | ~np.isfinite(x)).tolist()


def result_to_json(result: SweepResult) -> str:
    import json
    head = json.dumps({
        "metadata": result.metadata,
        "columns": [{"name": name, "unit": unit} for name, unit in result.columns],
        "rows": [],
    }, indent=2)
    values = tuple(chain.from_iterable(result.rows))
    if not values:
        return head + "\n"
    # one template slot per value, joined by ","; the slots carry the indent=2
    # layout, the first and last of a row its brackets
    width = len(result.columns)
    slots = ["\n      %s"] * width
    slots[0] = "\n    [" + slots[0]
    slots[-1] += "\n    ]"
    if sys.modules.get("numpy") is None:
        # every value spelled exactly; json.dumps spells each value of a list
        # as it spells that value alone
        specs = slots * len(result.rows)
        values = json.dumps([float(f"{v:.11e}") for v in values])[1:-1].split(", ")
    else:
        specs = [slot.replace("%s", "%.12g") for slot in slots] * len(result.rows)
        values = list(values)
        for i in _needs_repr(values):
            specs[i] = slots[i % width]
            values[i] = json.dumps(float(f"{values[i]:.11e}"))
    # head ends in '"rows": []\n}'
    return head[:-len("]\n}")] + ",".join(specs) % tuple(values) + "\n  ]\n}\n"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error [USAGE]: {message}\n")


def _emit(result: SweepResult, args) -> None:
    text = result_to_json(result) if args.format == "json" else result_to_csv(result)
    if args.output:
        with open(args.output, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# every parsed option but these is a parameter of the run
_NOT_PARAMETERS = ("command", "handler", "format", "output")


def _table(args, columns, rows, **extra) -> SweepResult:
    """A subcommand's table, with every option it was run with as metadata;
    ``extra`` adds further metadata entries.  A non-finite value is a
    ``NON_FINITE`` error naming its column."""
    rows = [[float(v) for v in row] for row in rows]
    finite = [all(map(math.isfinite, column)) for column in zip(*rows)]
    if not all(finite):
        raise DomainError(f"{columns[finite.index(False)][0]} is not finite", code="NON_FINITE")
    return SweepResult(
        columns=list(columns),
        rows=rows,
        metadata={
            "command": args.command,
            "parameters": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS},
            **extra,
            "library_version": __version__,
        },
    )


# --- subcommand handlers ------------------------------------------------------

def _am_sweep(args, columns, kernel) -> SweepResult:
    # the AM sweep of one beam; the first failing point raises its coded error
    beam = _beam(args)
    if not math.isfinite(args.b_max_lambda - args.b_min_lambda):
        raise DomainError(f"sweep span [{args.b_min_lambda:g}, {args.b_max_lambda:g}] "
                          "lambda is beyond the floating-point range")
    xs = _linspace(args.b_min_lambda, args.b_max_lambda, args.count)
    table, _ = _am_columns([beam], TransitionChannel(float(args.multipole_j)), xs,
                           args.lambda_nm, kernel, strict=True)
    return _table(args, [("b", "lambda")] + columns, table)


def _am_transfer_columns(beam, b, partition, scalar):
    return (partition.lz_internal, partition.lz_cm), partition.errors


def _cmd_ion_recoil(args) -> SweepResult:
    energy = wavelength_to_energy(args.lambda_nm)
    # a negative delta_l reaches no library check, so m_gamma is checked here
    delta_l = check(args.m_gamma, "m_gamma") - args.lambda_spin
    # the library takes an infinite mass as a recoil-free absorber; here it
    # can only be a --mass-mev whose conversion to eV overflows
    mass = check(args.mass_mev * MEV, "ion_mass")
    target = TargetParticle(mass, args.b_nm)
    e_long = nonrel_recoil_energy(energy, target.mass)
    e_t = transverse_recoil_energy(target, delta_l) if delta_l > 0 else 0.0
    solution = absorption_energy(energy, target, max(delta_l, 0))
    return _table(
        args,
        [("b", "nm"), ("delta_l", "hbar"), ("E_long", "neV"), ("E_T", "neV"),
         ("shift_total", "neV")],
        [[args.b_nm, delta_l, e_long / NEV, e_t / NEV, solution.recoil_energy / NEV]],
    )


def _cmd_trap_jump(args) -> SweepResult:
    beam, trap = _beam(args), _trap(args)
    p_t = superkick(abs(args.nu), args.b_nm)
    p_point = jump_probability_point(p_t, trap)
    p_ext = jump_probability_extended(beam, args.nu, args.b_nm, trap, args.sigma_nm)
    return _table(
        args,
        [("b", "nm"), ("p_T", "eV/c"), ("jump_point", "1"), ("jump_extended", "1")],
        [[args.b_nm, p_t, p_point, p_ext]],
    )


def _cmd_sidebands(args) -> SweepResult:
    spectrum = sideband_spectrum(
        _beam(args), args.nu, args.b_nm, _trap(args), args.sigma_nm, args.n_max
    )
    return _table(
        args,
        [("n", "1"), ("weight", "1"), ("energy_shift", "neV")],
        [[n, spectrum.weights[n], n * spectrum.quantum_energy / NEV]
         for n in sorted(spectrum.weights)],
        carrier_weight=spectrum.carrier_weight,
        truncation_residual=spectrum.truncation_residual,
    )


def _cmd_deuteron_threshold(args) -> SweepResult:
    energy = wavelength_to_energy(args.lambda_fm * FM)
    beam = TwistedPhotonBeam(args.m_gamma, 1, energy, args.pitch_rad)
    solution = deuteron_threshold(beam, args.internal_am, args.b_fm * FM)
    return _table(
        args,
        [("m_gamma", "hbar"), ("internal_am", "hbar"), ("b", "fm"),
         ("threshold", "MeV"), ("recoil", "keV"), ("p_T", "MeV/c")],
        [[args.m_gamma, args.internal_am, args.b_fm, solution.photon_energy / MEV,
          solution.recoil_energy / KEV, solution.p_T / MEV]],
    )


def _cmd_focus_fraction(args) -> SweepResult:
    beam = TwistedPhotonBeam(
        args.delta_l + 1, 1, args.energy_mev * MEV, args.pitch_rad,
        envelope_w0=args.w0_pm * PM,
    )
    fraction = focus_fraction(beam, args.delta_l, args.ratio_cut)
    b_star = ratio_cut_radius(beam, args.delta_l, args.ratio_cut)
    return _table(
        args,
        [("w0", "pm"), ("ratio_cut", "1"), ("b_star", "fm"), ("fraction", "1")],
        [[args.w0_pm, args.ratio_cut, b_star / FM, fraction]],
    )


def _cmd_pair_threshold(args) -> SweepResult:
    l_gamma = args.l_gamma
    if args.pt_mev is None:
        b = args.b_fm * FM
    elif check(args.pt_mev, "p_T kick") == 0.0:
        b, l_gamma = 0.0, 0
    elif not math.isfinite(args.pt_mev * MEV):
        raise DomainError(f"p_T = {args.pt_mev:g} MeV/c is beyond the floating-point range")
    else:  # express the requested kick as the impact parameter delivering it
        b = check(l_gamma, "l_gamma") * HBARC_EV_NM / (args.pt_mev * MEV)
    solution = pair_threshold(
        PairThresholdQuery(args.omega2_ev, args.pitch_urad * 1e-6, b, l_gamma)
    )
    return _table(
        args,
        [("omega2", "eV"), ("theta_k", "urad"), ("p_T", "MeV/c"),
         ("threshold", "GeV"), ("plane_wave", "GeV"), ("shift", "GeV")],
        [[args.omega2_ev, args.pitch_urad, solution.p_T / MEV, solution.photon_energy / GEV,
          plane_wave_threshold(args.omega2_ev) / GEV, solution.recoil_energy / GEV]],
    )


def _cmd_crossover(args) -> SweepResult:
    result = crossover_product(args.omega2_ev, args.l_gamma)
    return _table(
        args,
        [("omega2", "eV"), ("l_gamma", "1"), ("product", "pm*urad"), ("variation", "1")],
        [[args.omega2_ev, args.l_gamma, result.product / (PM * 1e-6),
          result.relative_variation]],
    )


def _cmd_beam_fit(args) -> SweepResult:
    fit = fit_beam_for_threshold_factor(
        args.factor, args.omega2_ev, args.l_gamma, args.w0_over_b
    )
    return _table(
        args,
        [("factor", "1"), ("p_T", "MeV/c"), ("b", "fm"), ("theta_k", "urad"),
         ("w0", "fm"), ("peak_radius", "fm"), ("threshold", "GeV")],
        [[args.factor, fit.p_T / MEV, fit.impact_parameter / FM, fit.pitch_angle * 1e6,
          fit.envelope_w0 / FM, fit.peak_radius / FM, fit.photon_energy / GEV]],
    )


def _parse_override(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"override must be KEY=VALUE, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value: object = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            value = raw
    return key, value


def _flag(quantity: str):
    """The argparse type of a flag: its text as the number ``quantity``
    takes, checked against :data:`twistkick.units.RANGES`; a failure is a
    usage error."""
    kind = int if RANGES[quantity].integer else float

    def parse(text: str):
        try:
            return check(kind(text), quantity)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    parse.__name__ = kind.__name__  # argparse names it in "invalid float value: 'x'"
    return parse


_float_flag = _flag("flag value")


class _UsageError(TwistkickError):
    default_code = "USAGE"


def _cmd_reproduce(args) -> SweepResult:
    overrides = dict(args.set or [])
    grid = None
    if args.grid_count is not None:
        if args.grid_start is None or args.grid_stop is None:
            raise _UsageError("--grid-count requires --grid-start and --grid-stop")
        grid = GridSpec(args.grid_start, args.grid_stop, args.grid_count,
                        args.grid_scale)
    return run_sweep(SweepSpec(args.figure, overrides=overrides, grid=grid))


# --- parser -------------------------------------------------------------------

def _add_output_flags(parser):
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write to PATH instead of stdout")


# argparse settings beyond the parameter table's: the choices a command
# takes, and the point count, which parsing checks
_ARGPARSE = {"multipole_j": dict(choices=(1, 2, 3)), "lambda_spin": dict(choices=(-1, 1)),
             "count": dict(type=_flag("count"))}


def _option(name: str) -> str:
    # the flag of a parameter, its argparse dest spelled with dashes
    return "--" + (_PARAMETERS[name].flag or name).replace("_", "-")


def _add_flag(parser, name, note, **settings):
    parameter = _PARAMETERS[name]
    kind = int if type(parameter.default) is int else _float_flag  # None: a float
    parser.add_argument(_option(name), **{"type": kind, **settings, **_ARGPARSE.get(name, {})},
                        help=f"{parameter.words} [{parameter.unit}] ({note})")


def _flags(*names, **defaults):
    """What adds the flags of ``names`` to a subcommand's parser, in order:
    each with its default from ``defaults``, else from the parameter table,
    and required where that is None; a pair of names is a required choice
    of one of the two."""
    def add(parser):
        for name in names:
            if isinstance(name, tuple):
                group = parser.add_mutually_exclusive_group(required=True)
                for one, other in (name, name[::-1]):
                    _add_flag(group, one, f"alternative to {_option(other)}")
            else:
                default = defaults.get(name, _PARAMETERS[name].default)
                _add_flag(parser, name,
                          "required" if default is None else f"default: {default:g}",
                          default=default, required=default is None)
    return add


def _beam(args) -> TwistedPhotonBeam:
    energy = wavelength_to_energy(args.lambda_nm)
    return TwistedPhotonBeam(args.m_gamma, args.lambda_spin, energy, args.pitch_rad)


def _trap(args) -> TrapModel:
    return TrapModel(args.trap_mhz * 1e6, args.trap_mhz * 1e6, args.mass_mev * MEV)


_AM_FLAGS = _flags("multipole_j", "lambda_nm", "m_gamma", "lambda_spin", "theta_k",
                   "b_min_lambda", "b_max_lambda", "count")
_TRAP_PARAMETERS = ("lambda_nm", "m_gamma", "lambda_spin", "theta_k", "nu", "b_nm", "sigma_nm",
                    "trap_mhz", "mass_mev")


def _add_reproduce_flags(p):
    p.add_argument("--figure", required=True, choices=FIGURE_IDS,
                   help="figure id")
    p.add_argument("--set", action="append", type=_parse_override, metavar="KEY=VALUE",
                   help="override a figure parameter (repeatable)")
    p.add_argument("--grid-start", type=_float_flag, default=None,
                   help="replacement grid start [figure x-unit]")
    p.add_argument("--grid-stop", type=_float_flag, default=None,
                   help="replacement grid stop [figure x-unit]")
    p.add_argument("--grid-count", type=int, default=None,
                   help="replacement grid point count [1]")
    p.add_argument("--grid-scale", choices=("lin", "log", "loglin"), default="lin",
                   help="replacement grid spacing (default: lin)")


#: every subcommand, once: its help, its handler and what adds its flags
#: (the output flags, which every subcommand takes, come last)
_COMMANDS = {
    "am-transfer": ("mean internal/c.m. angular momentum vs impact parameter",
                    partial(_am_sweep, columns=[("lz_internal", "hbar"), ("lz_cm", "hbar")],
                            kernel=_am_transfer_columns), _AM_FLAGS),
    "recoil-ratio": ("transverse/longitudinal recoil ratio vs impact parameter",
                     partial(_am_sweep, columns=[("pT_over_pz", "1")],
                             kernel=_ratio_from_partition), _AM_FLAGS),
    # --pitch-rad is accepted but unread: the recoil energies do not depend on it
    "ion-recoil": ("longitudinal and superkick recoil energies for a trapped ion",
                   _cmd_ion_recoil,
                   _flags("lambda_nm", "m_gamma", "lambda_spin", "theta_k", "b_nm", "mass_mev")),
    "trap-jump": ("trap excitation probability: point-impulse vs extended packet",
                  _cmd_trap_jump, _flags(*_TRAP_PARAMETERS, **_ION_LINE)),
    "sidebands": ("transverse sideband spectrum from the motional ground state",
                  _cmd_sidebands, _flags(*_TRAP_PARAMETERS, "n_max", **_ION_LINE)),
    "deuteron-threshold": ("photodisintegration threshold for a deuteron off the vortex axis",
                           _cmd_deuteron_threshold,
                           _flags("m_gamma", "internal_am", "b_fm", "lambda_fm", "theta_k",
                                  b_fm=None)),
    "focus-fraction": ("fraction of absorptions with recoil ratio above a cut",
                       _cmd_focus_fraction,
                       _flags("w0_pm", "ratio_cut", "delta_l", "energy_mev", "theta_k")),
    "pair-threshold": ("gamma-gamma pair-production threshold for a twisted photon",
                       _cmd_pair_threshold,
                       _flags("omega2_ev", "pitch_urad", ("pt_mev", "b_fm"), "l_gamma",
                              pitch_urad=None)),
    "crossover": ("b*theta_k product where twisted and plane-wave thresholds meet",
                  _cmd_crossover, _flags("omega2_ev", "l_gamma")),
    "beam-fit": ("beam parameters realizing a requested threshold increase",
                 _cmd_beam_fit, _flags("factor", "omega2_ev", "l_gamma", "w0_over_b")),
    "reproduce": ("emit the data table behind a canned figure", _cmd_reproduce,
                  _add_reproduce_flags),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand, or of ``command`` alone; a
    subcommand parses, and prints its usage and errors, the same either way."""
    parser = _Parser(
        prog="twistkick",
        description="Recoil kinematics of twisted-photon absorption: "
                    "AM partitioning, superkick recoil, threshold shifts.",
    )
    parser.add_argument("--version", action="version", version=f"twistkick {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in _COMMANDS if command is None else (command,):
        help_text, handler, add_flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_flags(p)
        _add_output_flags(p)
        p.set_defaults(handler=handler)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a TruncationWarning as one coded stderr line; others as Python does."""
    if issubclass(category, TruncationWarning):
        text = f"twistkick: warning [TRUNCATION]: {message}\n"
    else:
        text = warnings.formatwarning(message, category, filename, lineno, line)
    sys.stderr.write(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known command first needs its own parser alone; anything else (an
    # option, an unknown or no command) goes to the full one
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            result = args.handler(args)
            _emit(result, args)
        except TwistkickError as exc:
            print(f"twistkick: error [{exc.code}]: {exc}", file=sys.stderr)
            return 1 if exc.code == "USAGE" else 2
        except BrokenPipeError:
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
