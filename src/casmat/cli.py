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
import json
import sys

import numpy as np

from .quadrature import QuadratureSpec
from .scattering import (CavityConfig, ModelCapabilityError, lorentzian_mirror,
                         load_tabulated_mirror, perfect_mirror, validate_model)
from . import casimir2d
from . import casimir4d
from .casimir4d import PlanarMirrorModel

FIELDS = ["param", "q", "T", "value", "error", "method", "converged",
          "roundtrips"]

_EVAL_COMMANDS = ("force2d", "force4d", "energy2d", "energy4d",
                  "free-energy2d")


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
                        choices=["imag-axis", "roundtrip", "large-distance",
                                 "high-T", "auto"],
                        help="evaluation route (default auto)")
    common.add_argument("--r0", type=float, default=None,
                        help="frequency-independent loop reflection for the "
                             "large-distance forms")
    common.add_argument("--rel-tol", type=float, default=1e-9)
    common.add_argument("--abs-tol", type=float, default=1e-14)
    common.add_argument("--series-tail-tol", type=float, default=1e-10)
    common.add_argument("--max-roundtrips", type=int, default=10000)
    common.add_argument("--max-subdivisions", type=int, default=60)
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

    sub.add_parser("force2d", parents=[common],
                   help="force between two mirrors on a line")
    sub.add_parser("force4d", parents=[common],
                   help="pressure between plane mirrors")
    sub.add_parser("energy2d", parents=[common],
                   help="cavity energy (internal energy at T > 0)")
    sub.add_parser("energy4d", parents=[common],
                   help="plane-cavity energy at T = 0")
    sub.add_parser("free-energy2d", parents=[common],
                   help="cavity free energy at T > 0")

    sw = sub.add_parser("sweep", parents=[common],
                        help="evaluate a command over a parameter grid")
    sw.add_argument("--command", required=True, choices=_EVAL_COMMANDS)
    sw.add_argument("--param", required=True,
                    choices=["q", "T", "omega1", "omega2", "r0"])
    sw.add_argument("--from", dest="from_", type=float, required=True)
    sw.add_argument("--to", type=float, required=True)
    sw.add_argument("--points", type=int, default=11)
    sw.add_argument("--spacing", choices=["linear", "log"], default="linear")

    va = sub.add_parser("validate-model", parents=[common],
                        help="run the mirror model through its physical "
                             "consistency checks")
    del va  # flags come from the common set

    orc = sub.add_parser("oracle", parents=[common],
                         help="exact perfect-mirror value from the "
                              "boundary-mode sum")
    orc.add_argument("--dimension", type=int, choices=[2, 4], default=2)
    return parser


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
    return QuadratureSpec(rel_tol=args.rel_tol, abs_tol=args.abs_tol,
                          series_tail_tol=args.series_tail_tol,
                          max_roundtrips=args.max_roundtrips,
                          max_subdivisions=args.max_subdivisions)


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


def _cavity(args, planar=False):
    m1, m2 = _mirror_pair(args)
    if planar:
        m1, m2 = PlanarMirrorModel(m1), PlanarMirrorModel(m2)
    return CavityConfig(m1, m2, args.q, temperature=args.T)


def _record(args, res, method=None):
    rt = getattr(res, "roundtrips_used", None)
    return {"param": "", "q": args.q, "T": args.T, "value": res.value,
            "error": res.error_estimate,
            "method": method if method is not None else res.method,
            "converged": bool(res.converged),
            "roundtrips": rt if rt is not None else ""}


def _eval_force2d(args):
    spec = _spec(args)
    method = args.method
    if method == "high-T":
        raise ValueError("high-T is a 4D method; the 2D thermal force is "
                         "available through --method large-distance or "
                         "roundtrip")
    if method == "auto":
        if args.r0 is not None:
            method = "large-distance"
        elif args.model == "perfect":
            if args.T == 0.0:
                res = casimir2d.mode_sum_oracle_2d(args.q)
                return _record(args, res, method="closed-form")
            method = "roundtrip"
        else:
            method = "imag-axis" if args.T == 0.0 else "roundtrip"
    if method == "large-distance":
        r0 = args.r0 if args.r0 is not None else _cavity(args).loop_r0()
        return _record(args, casimir2d.force_large_distance(
            r0, args.q, temperature=args.T, spec=spec))
    cfg = _cavity(args)
    if method == "imag-axis":
        return _record(args, casimir2d.force_imag_axis(cfg, spec))
    return _record(args, casimir2d.force_roundtrip_time(cfg, spec))


def _eval_force4d(args):
    spec = _spec(args)
    method = args.method
    if method == "auto":
        if args.r0 is not None or args.model == "perfect":
            method = "large-distance"
        elif args.T == 0.0:
            method = "imag-axis"
        else:
            raise ModelCapabilityError(
                "the 4D thermal pressure is implemented for "
                "frequency-independent reflection; pass --r0")
    if method == "high-T":
        r0 = args.r0 if args.r0 is not None else _cavity(args, planar=True).loop_r0()
        return _record(args, casimir4d.pressure_high_temperature(
            r0, args.q, args.T))
    if method == "large-distance":
        if args.r0 is None and args.model == "perfect" and args.T == 0.0:
            return _record(args, casimir4d.mode_sum_oracle_4d(args.q),
                           method="closed-form")
        r0 = args.r0 if args.r0 is not None else _cavity(args, planar=True).loop_r0()
        return _record(args, casimir4d.pressure_thermal_large_distance(
            r0, args.q, args.T, spec))
    cfg = _cavity(args, planar=True)
    if method == "imag-axis":
        return _record(args, casimir4d.pressure_imag_axis(cfg, spec))
    return _record(args, casimir4d.pressure_roundtrip(cfg, spec))


def _eval_energy2d(args):
    spec = _spec(args)
    cfg = _cavity(args)
    if args.method in ("large-distance", "high-T"):
        raise ValueError("energy2d supports --method auto, imag-axis or "
                         "roundtrip")
    if args.method == "imag-axis" or (args.method == "auto" and args.T == 0.0):
        return _record(args, casimir2d.casimir_energy(cfg, spec))
    if args.T == 0.0:
        raise ValueError("the roundtrip energy evaluation requires T > 0")
    return _record(args, casimir2d.internal_energy_thermal(cfg, spec))


def _eval_energy4d(args):
    if args.method not in ("auto", "imag-axis"):
        raise ValueError("energy4d is evaluated on the imaginary axis")
    cfg = _cavity(args, planar=True)
    return _record(args, casimir4d.energy_4d(cfg, _spec(args)))


def _eval_free_energy2d(args):
    if args.method not in ("auto", "roundtrip"):
        raise ValueError("free-energy2d is evaluated by the roundtrip series")
    cfg = _cavity(args)
    return _record(args, casimir2d.free_energy(cfg, _spec(args)))


_EVALUATORS = {"force2d": _eval_force2d, "force4d": _eval_force4d,
               "energy2d": _eval_energy2d, "energy4d": _eval_energy4d,
               "free-energy2d": _eval_free_energy2d}


def _cmd_sweep(args):
    if args.to <= args.from_ or args.from_ <= 0.0:
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
    evaluate = _EVALUATORS[args.command]

    def one(v):
        point = copy.copy(args)
        setattr(point, args.param, float(v))
        rec = evaluate(point)
        rec["param"] = "%s=%r" % (args.param, float(v))
        return rec

    return [one(v) for v in values]


def _cmd_validate(args):
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
    if args.dimension == 2:
        res = casimir2d.mode_sum_oracle_2d(args.q)
    else:
        res = casimir4d.mode_sum_oracle_4d(args.q)
    rec = _record(args, res)
    rec["T"] = 0.0
    return [rec]


def emit_records(records, fmt, stream=None):
    """Write records in the chosen format (csv, json or plain table)."""
    stream = stream if stream is not None else sys.stdout
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
        records = [_EVALUATORS[args.command_name](args)]
    emit_records(records, args.output)
    return 4 if any(not r["converged"] for r in records) else 0


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
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
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
