"""Command-line front-end: evaluations, sweeps, validation, records.

Single evaluations (force2d, force4d, energy2d, energy4d, free-energy2d,
oracle), parameter sweeps over q, T, mirror cutoffs or r0, and mirror
model validation, with results emitted as CSV, JSON or a plain table.
Every evaluation becomes one record with a fixed column set

    param, q, T, value, error, method, converged, roundtrips

so sweep output is directly plottable.  Exit status: 0 on success, 2 on
usage errors, 3 when the model lacks a required capability, 4 when any
emitted record failed to converge (records are still emitted), 5 on I/O
errors.

All quantities are in natural units hbar = c = k_B = 1: lengths carry
inverse-energy units and temperatures energy units.  The CLI performs no
unit conversion; translate laboratory inputs by inserting the
appropriate powers of hbar and c (for instance a separation q given in
meters enters as q/(hbar c) and a 4D pressure result scales by hbar c).
"""

import argparse
import copy
import csv
import functools
import json
import sys
from dataclasses import fields, replace

import numpy as np

from .quadrature import QuadratureSpec
from .scattering import (CavityConfig, ModelCapabilityError, lorentzian_mirror,
                         load_tabulated_mirror, perfect_mirror, validate_model)
from . import casimir2d
from . import casimir4d

FIELDS = ["param", "q", "T", "value", "error", "method", "converged",
          "roundtrips"]

_METHODS = ["imag-axis", "roundtrip", "large-distance", "high-T", "auto"]


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", choices=["perfect", "lorentzian",
                                            "tabulated"], default="perfect",
                        help="mirror model for both mirrors (default perfect)")
    common.add_argument("--omega1", type=float, default=None,
                        help="resonance cutoff of mirror 1 (lorentzian)")
    common.add_argument("--omega2", type=float, default=None,
                        help="resonance cutoff of mirror 2 "
                             "(defaults to --omega1)")
    common.add_argument("--table", default=None,
                        help="reflection table file (tabulated model)")
    common.add_argument("--q", type=float, default=1.0,
                        help="mirror separation (default 1)")
    common.add_argument("--T", type=float, default=0.0,
                        help="temperature (default 0)")
    common.add_argument("--method", default="auto",
                        choices=_METHODS,
                        help="evaluation route (default auto)")
    common.add_argument("--r0", type=float, default=None,
                        help="frequency-independent loop reflection for the "
                             "large-distance forms")
    for field in fields(QuadratureSpec):
        common.add_argument("--" + field.name.replace("_", "-"),
                            type=field.type, default=field.default)
    common.add_argument("--output", choices=["csv", "json", "plain"],
                        default="plain")
    common.add_argument("--config", default=None,
                        help="key=value file supplying defaults for any flag; "
                             "command-line flags win")

    parser = argparse.ArgumentParser(
        prog="casmat",
        description="Casimir forces and energies between partially "
                    "transmitting mirrors (natural units, hbar = c = k_B = 1).")
    sub = parser.add_subparsers(dest="command_name", required=True)

    for name, text in (
            ("force2d", "force between two mirrors on a line"),
            ("force4d", "pressure between plane mirrors"),
            ("energy2d", "cavity energy (internal energy at T > 0)"),
            ("energy4d", "plane-cavity energy at T = 0"),
            ("free-energy2d", "cavity free energy at T > 0")):
        sub.add_parser(name, parents=[common], help=text)

    sw = sub.add_parser("sweep", parents=[common],
                        help="evaluate a command over a parameter grid")
    sw.add_argument("--command", required=True, choices=list(_ROUTES))
    sw.add_argument("--param", required=True,
                    choices=["q", "T", "omega1", "omega2", "r0"])
    sw.add_argument("--from", dest="from_", type=float, required=True)
    sw.add_argument("--to", type=float, required=True)
    sw.add_argument("--points", type=int, default=11)
    sw.add_argument("--spacing", choices=["linear", "log"], default="linear")

    sub.add_parser("validate-model", parents=[common],
                   help="run the mirror model through its physical "
                        "consistency checks")

    orc = sub.add_parser("oracle", parents=[common],
                         help="exact perfect-mirror value from the "
                              "boundary-mode sum")
    orc.add_argument("--dimension", type=int, choices=[2, 4], default=2)
    return parser


@functools.cache
def _parser():
    """The process's one parser: parse_args keeps no state between calls.

    Cached here, not on _build_parser, which stays a factory of a new
    parser per call for callers that wrap or patch the parsers it makes.
    """
    return _build_parser()


def _config_tokens(path):
    """Turn a key=value file into a flag token list."""
    tokens = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("config line %r is not key=value" % line)
            key, val = line.split("=", 1)
            tokens += ["--" + key.strip().replace("_", "-"), val.strip()]
    return tokens


def _spec(args):
    return QuadratureSpec(**{field.name: getattr(args, field.name)
                             for field in fields(QuadratureSpec)})


def _mirror_pair(args):
    if args.model == "perfect":
        return perfect_mirror(), perfect_mirror()
    if args.model == "lorentzian":
        if args.omega1 is None:
            raise ValueError("--omega1 is required for the lorentzian model")
        w2 = args.omega2 if args.omega2 is not None else args.omega1
        return lorentzian_mirror(args.omega1), lorentzian_mirror(w2)
    if args.table is None:
        raise ValueError("--table is required for the tabulated model")
    m = load_tabulated_mirror(args.table, q=args.q)
    return m, m


def _cavity(args):
    """The CavityConfig of args; a table's one mirror sits at both ends."""
    return CavityConfig(*_mirror_pair(args), args.q, temperature=args.T)


def _record(args, res):
    rt = res.roundtrips_used
    return {"param": "", "q": args.q, "T": args.T, "value": res.value,
            "error": res.error_estimate, "method": res.method,
            "converged": bool(res.converged),
            "roundtrips": rt if rt is not None else ""}


def _r0(args):
    """--r0, or else the mirror pair's zero-frequency loop reflection."""
    return args.r0 if args.r0 is not None else _cavity(args).loop_r0()


# command -> route -> one engine call (args, spec); every route but
# "closed-form" is a --method choice, and _route picks "closed-form"
_ROUTES = {
    "force2d": {
        "imag-axis": lambda a, s: casimir2d.force_imag_axis(_cavity(a), s),
        "roundtrip": lambda a, s: casimir2d.force_roundtrip_time(
            _cavity(a), s),
        "large-distance": lambda a, s: casimir2d.force_large_distance(
            _r0(a), a.q, temperature=a.T, spec=s),
        "closed-form": lambda a, s: replace(
            casimir2d.mode_sum_oracle_2d(a.q), method="closed-form"),
    },
    "force4d": {
        "imag-axis": lambda a, s: casimir4d.pressure_imag_axis(_cavity(a), s),
        "roundtrip": lambda a, s: casimir4d.pressure_roundtrip(_cavity(a), s),
        "large-distance":
            lambda a, s: casimir4d.pressure_thermal_large_distance(
                _r0(a), a.q, a.T, s),
        "high-T": lambda a, s: casimir4d.pressure_high_temperature(
            _r0(a), a.q, a.T),
        "closed-form": lambda a, s: replace(
            casimir4d.mode_sum_oracle_4d(a.q), method="closed-form"),
    },
    "energy2d": {
        "imag-axis": lambda a, s: casimir2d.casimir_energy(_cavity(a), s),
        "roundtrip": lambda a, s: casimir2d.internal_energy_thermal(
            _cavity(a), s),
    },
    "energy4d": {
        "imag-axis": lambda a, s: casimir4d.energy_4d(_cavity(a), s),
    },
    "free-energy2d": {
        "roundtrip": lambda a, s: casimir2d.free_energy(_cavity(a), s),
    },
}


def _route(command, args):
    """The key of _ROUTES[command] that --method selects, auto resolved.

    auto takes, in order: the large-distance form for a force given --r0
    or for the perfect-mirror pressure; a command's only route; at T = 0
    the closed form for the perfect-mirror force2d, else the imaginary
    axis; at T > 0 the roundtrip series.  The perfect-mirror
    large-distance pressure at T = 0 is the closed form.  --r0 is an
    error on any route but large-distance and high-T.
    """
    routes, method = _ROUTES[command], args.method
    if method != "auto" and method not in routes:
        raise ValueError("%s supports --method %s" % (command, ", ".join(
            m for m in _METHODS if m in routes or m == "auto")))
    perfect = args.model == "perfect" and args.r0 is None
    if method == "auto":
        if args.r0 is not None and "large-distance" in routes or (
                command == "force4d" and perfect):
            method = "large-distance"
        elif len(routes) == 1:
            (method,) = routes
        elif args.T == 0.0:
            method = ("closed-form" if perfect and command == "force2d"
                      else "imag-axis")
        elif command == "force4d":
            raise ModelCapabilityError(
                "the 4D thermal pressure is implemented for "
                "frequency-independent reflection; pass --r0")
        else:
            method = "roundtrip"
    if args.r0 is not None and method not in ("large-distance", "high-T"):
        raise ValueError("--r0 is taken by --method large-distance and "
                         "high-T only, not by %s %s" % (command, method))
    if (command == "force4d" and method == "large-distance" and perfect
            and args.T == 0.0):
        return "closed-form"
    return method


def _evaluate(command, args):
    """One record: command evaluated by the route _route picks."""
    spec = _spec(args)
    return _record(args, _ROUTES[command][_route(command, args)](args, spec))


def _cmd_sweep(args):
    if not 0.0 < args.from_ < args.to:
        raise ValueError("sweep range must be positive and ordered "
                         "(0 < from < to)")
    if args.points < 1:
        raise ValueError("sweep needs at least one point")
    if args.param in ("omega1", "omega2") and args.model != "lorentzian":
        raise ValueError("sweeping %s requires the lorentzian model"
                         % args.param)
    if args.spacing == "log":
        values = np.geomspace(args.from_, args.to, args.points)
    else:
        values = np.linspace(args.from_, args.to, args.points)

    def one(v):
        point = copy.copy(args)
        setattr(point, args.param, float(v))
        rec = _evaluate(args.command, point)
        rec["param"] = "%s=%r" % (args.param, float(v))
        return rec

    return [one(v) for v in values]


def _cmd_validate(args):
    if args.T != 0.0 or args.method != "auto" or args.r0 is not None:
        raise ValueError("validate-model checks the mirror model itself and "
                         "takes no --T, --method or --r0")
    m, _ = _mirror_pair(args)
    scale = args.omega1 if args.model == "lorentzian" else 1.0
    grid = np.geomspace(1e-2, 1e2, 41) * scale
    report = validate_model(m, grid)
    if args.output == "json":
        print(json.dumps(report, indent=2))
    else:
        for name, chk in report["checks"].items():
            if chk["passed"] is None:
                print("%-18s skipped (model has no real-frequency axis)"
                      % (name + ":"))
            else:
                status = "pass" if chk["passed"] else "FAIL"
                print("%-18s %s  (residual %.3e)"
                      % (name + ":", status, chk["residual"]))
        for w in report["warnings"]:
            print("warning: %s" % w)
        print("model %s" % ("ok" if report["passed"] else "FAILED"))
    return 0 if report["passed"] else 4


def _cmd_oracle(args):
    if (args.model != "perfect" or args.T != 0.0 or args.method != "auto"
            or args.r0 is not None):
        raise ValueError("oracle is the perfect-mirror value at T = 0 and "
                         "takes no --model, --T, --method or --r0")
    if args.dimension == 2:
        return [_record(args, casimir2d.mode_sum_oracle_2d(args.q))]
    return [_record(args, casimir4d.mode_sum_oracle_4d(args.q))]


def emit_records(records, fmt):
    """Write records to stdout as csv, json or a plain table."""
    stream = sys.stdout
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(FIELDS)
        for rec in records:
            writer.writerow([rec[f] for f in FIELDS])
    elif fmt == "json":
        stream.write(json.dumps(records, indent=2) + "\n")
    else:
        def fmt_cell(v):
            return "%.12g" % v if isinstance(v, float) else str(v)
        rows = [[fmt_cell(rec[f]) for f in FIELDS] for rec in records]
        widths = [max([len(f)] + [len(r[i]) for r in rows])
                  for i, f in enumerate(FIELDS)]
        stream.write("  ".join(f.ljust(w)
                               for f, w in zip(FIELDS, widths)).rstrip() + "\n")
        for r in rows:
            stream.write("  ".join(c.ljust(w)
                                   for c, w in zip(r, widths)).rstrip() + "\n")


def _run(args):
    if args.command_name == "validate-model":
        return _cmd_validate(args)
    if args.command_name == "sweep":
        records = _cmd_sweep(args)
    elif args.command_name == "oracle":
        records = _cmd_oracle(args)
    else:
        records = [_evaluate(args.command_name, args)]
    emit_records(records, args.output)
    return 4 if any(not r["converged"] for r in records) else 0


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # config tokens go first so explicit flags override them
            tokens = _config_tokens(args.config)
            args = parser.parse_args([argv[0]] + tokens + argv[1:])
        return _run(args)
    except ModelCapabilityError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 5
    except (ValueError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
