"""Command-line front end.

Subcommands: ``eval`` (single-point JSON report), ``sweep`` (CSV parameter
sweep), ``plot`` (SVG chart from sweep CSV), ``verify`` (built-in check
suite).  Every subcommand accepts ``--config`` (flat ``key = value`` file,
``#`` comments, explicit flags win) and ``--out``; ``verify`` also takes
``--seed``.

Exit codes: 0 success, 1 verification failure, 2 usage, invalid
configuration or out-of-range input, 3 degenerate geometry or a diverging or
failed model, 4 I/O failure, 5 malformed tabular input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    DegenerateGeometryError,
    MalformedDataError,
    SweepPointError,
)
from .geometry import ArrayGeometry, normalized_spacing
from .numerics import db_to_linear, linear_to_db
from .snr_models import SnrModel
from .sweep import (
    MODEL_ORDER,
    PRESETS,
    Scenario,
    SweepScale,
    SweepSpec,
    SweepVariable,
    applicable_models,
    default_scenario,
    evaluate_models,
    flag_union,
    run_sweep,
)
from .svgchart import ChartSeries, render_line_chart
from .verify import run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4
EXIT_MALFORMED = 5

_SNR_DB_COLUMNS = tuple(f"snr_{model.token}_db" for model in SnrModel)
_MODEL_BY_TOKEN = {model.token: model for model in SnrModel}

CSV_HEADER = ",".join((
    "index", "var_name", "var_value", "M", "N", "d_m", "D_m", "r_m",
    "theta_rad", "txsnr_db", *_SNR_DB_COLUMNS, "flags",
))

_SPEED_OF_LIGHT = 2.99792458e8


class UsageError(ValueError):
    "Invalid flag/config combination; maps to exit code 2."


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


#: Pairs of destinations that set one quantity in two units.  At most one of
#: a pair may be set, and an explicit flag for either makes the config file's
#: values for both inert.
_FLAG_FAMILIES = (
    ("spacing_m", "spacing_wl"),
    ("separation_m", "separation_ratio"),
    ("frequency_ghz", "wavelength_m"),
)


def _u64(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError("seed must be an integer") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in unsigned 64 bits")
    return value


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.Action]]:
    """The parser, and each config key's action over every subcommand: the key
    is the long option without ``--``, dashes as underscores (``in`` is
    ``--in``)."""
    actions: Dict[str, argparse.Action] = {}

    def option(container, flag: str, **kwargs) -> None:
        actions[flag[2:].replace("-", "_")] = container.add_argument(flag, **kwargs)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="PATH",
        help="flat key = value settings file; explicit flags override it",
    )
    option(common, "--out", metavar="PATH", help="output file path")

    scenario = argparse.ArgumentParser(add_help=False)
    group = scenario.add_argument_group("scenario")
    option(group, "--elements-per-module", type=int, metavar="M")
    option(group, "--modules", type=int, metavar="N")
    option(
        group, "--spacing-m", type=float, metavar="METERS",
        help="element spacing in meters",
    )
    option(
        group, "--spacing-wl", type=float, metavar="WL",
        help="element spacing in wavelengths",
    )
    option(
        group, "--separation-m", type=float, metavar="METERS",
        help="module separation in meters",
    )
    option(
        group, "--separation-ratio", type=float, metavar="L",
        help="module separation in element spacings",
    )
    option(group, "--frequency-ghz", type=float, metavar="GHZ")
    option(group, "--wavelength-m", type=float, metavar="METERS")
    option(group, "--range-m", type=float, metavar="METERS")
    option(
        group, "--theta-deg", type=float, metavar="DEG",
        help="user direction off broadside, degrees in [-90, 90]",
    )
    option(
        group, "--txsnr-db", type=float, metavar="DB",
        help="joint transmit SNR (power times reference gain), dB",
    )
    option(
        scenario, "--models", metavar="LIST",
        help="comma-separated subset of "
        + ",".join(model.token for model in SnrModel)
        + ", or 'all' for every applicable model",
    )

    parser = argparse.ArgumentParser(
        prog="modxl",
        description="SNR models for modular extremely large linear arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", parents=[common, scenario],
        help="evaluate the requested SNR models at one configuration",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser(
        "sweep", parents=[common, scenario],
        help="sweep one variable and write a CSV of model SNRs",
    )
    option(
        p_sweep, "--preset", choices=tuple(PRESETS),
        help="named sweep configuration (default: element-count)",
    )
    option(
        p_sweep, "--var", choices=tuple(v.value for v in SweepVariable),
        help="swept variable",
    )
    option(
        p_sweep, "--start", type=float,
        help="sweep start (degrees for theta, meters/counts otherwise)",
    )
    option(p_sweep, "--stop", type=float, help="sweep stop")
    option(p_sweep, "--steps", type=int, help="number of sweep points")
    option(p_sweep, "--scale", choices=tuple(s.value for s in SweepScale))
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser(
        "plot", parents=[common],
        help="render sweep CSV columns as an SVG line chart",
    )
    option(p_plot, "--in", dest="input_path", metavar="CSV")
    option(p_plot, "--x", metavar="COLUMN", help="x column (default var_value)")
    option(
        p_plot, "--y", metavar="LIST",
        help="comma-separated y columns (default: all populated SNR columns)",
    )
    option(
        p_plot, "--logx", action="store_true", default=None,
        help="logarithmic x axis",
    )
    option(p_plot, "--title", metavar="TEXT")
    p_plot.set_defaults(func=cmd_plot)

    p_verify = sub.add_parser(
        "verify", parents=[common],
        help="run the built-in verification checks",
    )
    option(
        p_verify, "--seed", type=_u64, metavar="U64",
        help="seed for the stochastic verification check",
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser, actions


def _read_text(path: str, error: type) -> str:
    """The text of the UTF-8 file at ``path``, decoded whole, less a leading
    byte-order mark, as some editors write; ``error`` names the file and the
    offset in it of the first byte that is not UTF-8.  The mark is dropped
    after decoding, so the offset counts it (``utf-8-sig`` counts from past
    it)."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte 0x{data[exc.start]:02x} "
                    f"at offset {exc.start}: {exc.reason})") from None


def _read_config_file(path: str) -> Dict[str, str]:
    text = _read_text(path, UsageError)
    entries: Dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        entries[key] = value
    return entries


def _apply_config(
    args: argparse.Namespace, actions: Dict[str, argparse.Action]
) -> None:
    if getattr(args, "config", None) is None:
        return
    entries = _read_config_file(args.config)
    given = {dest for dest, value in vars(args).items() if value is not None}
    inert = set(given)  # an explicit flag silences its whole family
    for family in _FLAG_FAMILIES:
        if given.intersection(family):
            inert.update(family)
    for key, raw in entries.items():
        if key not in actions:
            raise UsageError(f"{args.config}: unknown config key {key!r}")
        action = actions[key]
        # Parsed as its flag is, also where it goes unused, so a bad value in
        # a shared file fails every command; --logx takes a boolean.
        parse = _parse_bool if action.nargs == 0 else action.type or str
        try:
            value = parse(raw)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise UsageError(
                f"{args.config}: config key {key!r}: cannot parse {raw!r} ({exc})"
            ) from None
        if action.choices is not None and value not in action.choices:
            raise UsageError(
                f"{args.config}: config key {key!r}: {raw!r} is not one of "
                + ", ".join(action.choices)
            )
        if hasattr(args, action.dest) and action.dest not in inert:
            setattr(args, action.dest, value)  # else another command's, or overridden


def _check_exclusive(args: argparse.Namespace) -> None:
    "Reject a quantity given in two units, by flags or the config file."
    for family in _FLAG_FAMILIES:
        if all(getattr(args, dest, None) is not None for dest in family):
            raise UsageError(f"give only one of {' and '.join(family)}")


def _default(value, fallback):
    return fallback if value is None else value


def _resolve_scenario(args: argparse.Namespace) -> Scenario:
    """The reference scenario with the given flags applied.  A zero divisor
    gives inf, which the link or geometry constructor rejects by name."""
    base = default_scenario()
    if args.wavelength_m is not None:
        wavelength = args.wavelength_m
    elif args.frequency_ghz is not None:
        hertz = args.frequency_ghz * 1e9
        wavelength = _SPEED_OF_LIGHT / hertz if hertz else math.inf
    else:
        wavelength = base.link.wavelength_m
    transmit_snr = base.link.transmit_snr
    if args.txsnr_db is not None:
        transmit_snr = db_to_linear(args.txsnr_db)
    link = replace(base.link, wavelength_m=wavelength, transmit_snr=transmit_snr)
    if args.spacing_m is not None:
        spacing = args.spacing_m
    else:
        base_spacing_wl = base.geometry.element_spacing / base.link.wavelength_m
        spacing = _default(args.spacing_wl, base_spacing_wl) * wavelength
    if args.separation_ratio is not None:
        ratio = args.separation_ratio
    elif args.separation_m is not None:
        ratio = args.separation_m / spacing if spacing else math.inf
    else:
        ratio = base.geometry.separation_ratio
    geometry = ArrayGeometry(
        elements_per_module=_default(
            args.elements_per_module, base.geometry.elements_per_module
        ),
        module_count=_default(args.modules, base.geometry.module_count),
        element_spacing=spacing,
        separation_ratio=ratio,
    )
    user = base.user
    if args.range_m is not None:
        user = replace(user, range_m=args.range_m)
    if args.theta_deg is not None:
        user = replace(user, angle_rad=math.radians(args.theta_deg))
    return Scenario(geometry, user, link)


def _resolve_models(
    text: str, scenarios: Sequence[Scenario], swept: Optional[SweepVariable]
) -> frozenset:
    """The models that ``text`` names; ``all`` names those that
    :func:`applicable_models` gives at every one of ``scenarios``."""
    tokens = [t.strip().lower() for t in text.split(",") if t.strip()]
    if not tokens:
        raise UsageError("empty models list")
    chosen = set()
    for token in tokens:
        if token == "all":
            chosen.update(set.intersection(
                *(set(applicable_models(scenario, swept)) for scenario in scenarios)
            ))
        elif token in _MODEL_BY_TOKEN:
            chosen.add(_MODEL_BY_TOKEN[token])
        else:
            raise UsageError(f"unknown model token {token!r}")
    return frozenset(chosen)


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _fmt9(value: float) -> str:
    "Nine significant digits, locale-independent; inf or NaN raises OverflowError."
    if not math.isfinite(value):
        raise OverflowError(f"a CSV field is {value}")
    return f"{value:.9g}"


def cmd_eval(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args)
    models = _resolve_models(_default(args.models, "all"), [scenario], None)
    reports = evaluate_models(scenario, models)

    geom = scenario.geometry
    snr_block: Dict[str, float] = {}
    for model, report in reports.items():
        snr_block[f"snr_{model.token}_linear"] = report.value_linear
        snr_block[f"snr_{model.token}_db"] = report.value_db
    payload = {
        "geometry": {
            "elements_per_module": geom.elements_per_module,
            "modules": geom.module_count,
            "element_spacing_m": geom.element_spacing,
            "separation_ratio": geom.separation_ratio,
            "module_separation_m": geom.module_separation,
            "stride": geom.stride,
            "total_elements": geom.total_elements,
            "aperture_m": geom.aperture,
            "augmented_span_m": geom.augmented_span,
        },
        "user": {
            "range_m": scenario.user.range_m,
            "theta_rad": scenario.user.angle_rad,
            "theta_deg": math.degrees(scenario.user.angle_rad),
            "normalized_spacing": normalized_spacing(geom, scenario.user),
        },
        "link": {
            "wavelength_m": scenario.link.wavelength_m,
            "txsnr_db": linear_to_db(scenario.link.effective_power),
        },
        "snr": snr_block,
        "flags": sorted(flag_union(reports)),
    }
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:  # a field overflowed, as an aperture of inf metres
        raise OverflowError("a report field is not finite") from None
    _write_text(args.out, text + "\n")
    return EXIT_OK


def _resolve_sweep_spec(args: argparse.Namespace, scenario: Scenario) -> SweepSpec:
    "The chosen preset on the given scenario, with the sweep flags applied."
    preset = PRESETS[_default(args.preset, "element-count")](scenario)
    variable = preset.variable if args.var is None else SweepVariable(args.var)

    if variable is preset.variable:
        start, stop = preset.start, preset.stop
    else:
        start = stop = None
    # CLI angles are degrees; the engine works in radians.
    to_native = math.radians if variable is SweepVariable.THETA else float
    if args.start is not None:
        start = to_native(args.start)
    if args.stop is not None:
        stop = to_native(args.stop)
    if start is None or stop is None:
        raise UsageError(
            f"sweeping {variable.value} needs explicit --start and --stop"
        )

    spec = replace(
        preset,
        variable=variable,
        start=start,
        stop=stop,
        steps=_default(args.steps, preset.steps),
        scale=preset.scale if args.scale is None else SweepScale(args.scale),
    )
    if args.models is None:
        return spec
    # Past the two swept-variable rules of applicable_models, each domain
    # test is monotone along the swept variable, and on an angle sweep only
    # an end can lie within the endfire floor: the ends decide.
    return replace(spec, models=_resolve_models(args.models, spec.ends, variable))


def _render_csv(spec: SweepSpec, records) -> str:
    lines = [CSV_HEADER]
    for record in records:
        sc = record.scenario
        geom = sc.geometry
        fields = [
            str(record.index),
            spec.variable.value,
            _fmt9(record.variable_value),
            str(geom.elements_per_module),
            str(geom.module_count),
            _fmt9(geom.element_spacing),
            _fmt9(geom.module_separation),
            _fmt9(sc.user.range_m),
            _fmt9(sc.user.angle_rad),
            _fmt9(linear_to_db(sc.link.effective_power)),
        ]
        for model in MODEL_ORDER:
            report = record.reports.get(model)
            fields.append("" if report is None else _fmt9(report.value_db))
        fields.append(";".join(sorted(record.validity_flags)))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.out is None:
        raise UsageError("sweep requires --out PATH")
    scenario = _resolve_scenario(args)
    spec = _resolve_sweep_spec(args, scenario)
    records = run_sweep(spec)
    _write_text(args.out, _render_csv(spec, records))
    return EXIT_OK


def _read_csv_table(path: str) -> Tuple[List[str], List[List[str]]]:
    reader = csv.reader(io.StringIO(_read_text(path, MalformedDataError), newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:  # as a field over csv.field_size_limit()
        raise MalformedDataError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise MalformedDataError(f"{path}: empty file")
    header, data = rows[0], rows[1:]
    for i, row in enumerate(data, start=2):
        if len(row) != len(header):
            raise MalformedDataError(
                f"{path}:{i}: expected {len(header)} fields, found {len(row)}"
            )
    return header, data


def _series_from_table(
    path: str,
    header: List[str],
    data: List[List[str]],
    x_name: str,
    y_name: str,
    log_x: bool,
) -> ChartSeries:
    xi = header.index(x_name)
    yi = header.index(y_name)
    xs: List[float] = []
    ys: List[float] = []
    for i, row in enumerate(data, start=2):
        y_cell = row[yi].strip()
        if not y_cell:
            continue  # model not requested at this point
        try:
            xs.append(float(row[xi]))
            ys.append(float(y_cell))
        except ValueError:
            raise MalformedDataError(
                f"{path}:{i}: non-numeric value in {x_name!r}/{y_name!r}"
            ) from None
        if not (math.isfinite(xs[-1]) and math.isfinite(ys[-1])):
            raise MalformedDataError(
                f"{path}:{i}: non-finite value in {x_name!r}/{y_name!r}"
            )
    if len(xs) < 2:
        raise MalformedDataError(
            f"{path}: column {y_name!r} has fewer than two plottable rows"
        )
    if log_x and min(xs) <= 0:
        raise MalformedDataError(
            f"{path}: column {x_name!r} has non-positive values; "
            "log x axis impossible"
        )
    return ChartSeries(label=y_name, x=tuple(xs), y=tuple(ys))


def cmd_plot(args: argparse.Namespace) -> int:
    if args.input_path is None:
        raise UsageError("plot requires --in CSV")
    if args.out is None:
        raise UsageError("plot requires --out PATH")
    header, data = _read_csv_table(args.input_path)

    x_name = _default(args.x, "var_value")
    if x_name not in header:
        raise UsageError(f"unknown x column {x_name!r}")
    if args.y is not None:
        y_names = [t.strip() for t in args.y.split(",") if t.strip()]
        if not y_names:
            raise UsageError("empty y column list")
        for name in y_names:
            if name not in header:
                raise UsageError(f"unknown y column {name!r}")
    else:
        y_names = [
            name
            for name in _SNR_DB_COLUMNS
            if name in header
            and any(row[header.index(name)].strip() for row in data)
        ]
        if not y_names:
            raise MalformedDataError(
                f"{args.input_path}: no populated SNR columns to plot"
            )

    log_x = bool(_default(args.logx, False))
    series = [
        _series_from_table(args.input_path, header, data, x_name, name, log_x)
        for name in y_names
    ]
    svg = render_line_chart(
        series,
        x_label=x_name,
        y_label=", ".join(y_names),
        title=_default(args.title, ""),
        log_x=log_x,
    )
    _write_text(args.out, svg)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks() if args.seed is None else run_checks(seed=args.seed)
    lines = [result.line() for result in results]
    passed = sum(1 for result in results if result.passed)
    lines.append(f"{passed}/{len(results)} checks passed")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if passed == len(results) else EXIT_VERIFY_FAILED


#: Exit code of each reported exception family, first match wins.
_EXIT_CODES = (
    (MalformedDataError, EXIT_MALFORMED),
    (ValueError, EXIT_USAGE),  # includes UsageError and model-mismatch
    (DegenerateGeometryError, EXIT_DEGENERATE),
    (ArithmeticError, EXIT_DEGENERATE),  # unbounded limit, model breakdown, quadrature
    (MemoryError, EXIT_USAGE),  # an array too large for memory
    (OSError, EXIT_IO),
)


def _failure(exc: BaseException) -> Optional[Tuple[int, str]]:
    """The exit code and message ``main`` reports for ``exc``, or None for an
    exception it lets through.  A failed sweep point reports its cause."""
    if isinstance(exc, SweepPointError) and exc.__cause__ is not None:
        inner = _failure(exc.__cause__)
        return inner and (inner[0], f"sweep point {exc.index} failed: {inner[1]}")
    if isinstance(exc, OverflowError):
        # an input so large or small that a model overflows
        return EXIT_USAGE, "an input value is out of range (floating-point overflow)"
    for kind, code in _EXIT_CODES:
        if isinstance(exc, kind):
            return code, str(exc) or type(exc).__name__
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, actions = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, actions)
        _check_exclusive(args)
        return args.func(args)
    except Exception as exc:  # mapped to documented exit codes
        failure = _failure(exc)
        if failure is None:
            raise
        print(f"modxl: error: {failure[1]}", file=sys.stderr)
        return failure[0]


if __name__ == "__main__":
    sys.exit(main())
