"""casmat benchmark: one process, one thread, one caller in a closed loop.

Run from the root of a checkout that holds casmat's sources under src/:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py and documented in README.md.  The run:

1. imports casmat, then sets up three times and checks that the three
   set-ups agree.  A set-up draws the workload's input sets from the seed,
   each from its own generator, computes their reference values, and warms
   up on one more set drawn the same way;
2. with --trace 0, evaluates the cases in rounds, one call at a time, each
   round on the next input set, until --seconds have passed and every set
   has been evaluated once and one set twice.  The metrics come from the
   first pass over the sets, in which no input repeats; later rounds check
   that a repeated set gives bit-identical results;
3. with --trace 1, runs untraced rounds of the first set for half the time
   and traced rounds of it for the other half, and reports the per-layer
   metrics;
4. checks every result against its reference, checks that repeated rounds
   gave bit-identical results (and, traced, identical work counts), prints
   one line of details and, last, one JSON line with the metrics.

Without casmat's sources it exits with status 2 and prints no result.
"""

import argparse
import atexit
import hashlib
import json
import marshal
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

SETUPS = 3          # set-ups per run; setup_s reports their median
REL_TOL = 1e-5      # relative miss that fails a result whatever its error bar
# Timings are scaled to a machine on which the probes take this long.  On a
# shared VM, neighbours slow whole stretches of a run by up to 1.7x, and a
# probe next to the timed work slows with it.
PROBE_REF_S = 2e-4          # make_probe, next to each evaluation
IMPORT_PROBE_REF_S = 1e-3   # make_import_probe, for casmat's import
PROBES = 15                 # import probes; their median scales the import
ROUNDOFF_ULPS = 4   # roundoff floor of the error-bar check, in ulps of |ref|


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


class Tally:
    """Outcome counts for a set of evaluations (calls)."""

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.unconverged = 0
        self.err_bar_base = 0
        self.err_bar_miss = 0
        self.rel_err = []
        self.by_kind = {}

    def merge(self, other):
        """Add another tally's counts to this one."""
        for what in ("calls", "failed", "unconverged", "err_bar_base",
                     "err_bar_miss"):
            setattr(self, what, getattr(self, what) + getattr(other, what))
        self.rel_err += other.rel_err
        for what, kinds in other.by_kind.items():
            for kind, n in kinds.items():
                d = self.by_kind.setdefault(what, {})
                d[kind] = d.get(kind, 0) + n

    def _note(self, what, kind):
        d = self.by_kind.setdefault(what, {})
        d[kind] = d.get(kind, 0) + 1

    def judge(self, case, raw, exc):
        """Check one call's results; returns a fingerprint of them."""
        self.calls += 1
        if exc is None:
            try:
                results = case.parse(raw)
                if len(results) != len(case.refs):
                    raise RuntimeError("%d results for %d references"
                                       % (len(results), len(case.refs)))
            except Exception as e:  # a malformed output is a failed call
                exc = e
        if exc is not None:
            self.failed += 1
            self._note("raised", case.kind)
            return "raised %s: %s" % (type(exc).__name__, exc)
        failed = unconverged = missed = based = False
        for r, (ref, ref_err) in zip(results, case.refs):
            dev = abs(r.value - ref)
            floor = ROUNDOFF_ULPS * math.ulp(abs(ref)) + r.read_err
            err = r.err if r.err is not None else 0.0
            if not dev <= max(err + ref_err, REL_TOL * abs(ref)) + floor:
                failed = True
            if r.converged is False:
                unconverged = True
            elif r.err is not None:
                based = True
                if not dev <= err + ref_err + floor:
                    missed = True
            if ref != 0.0:
                self.rel_err.append((err + floor) / abs(ref))
        for flag, what in ((failed, "failed"), (unconverged, "unconverged"),
                           (missed, "err_bar_miss")):
            if flag:
                setattr(self, what, getattr(self, what) + 1)
                self._note(what, case.kind)
        self.err_bar_base += based
        return repr([(r.value, r.err, r.converged) for r in results])


def make_probe():
    """A fixed piece of interpreter and small-array numpy work, the kind
    casmat does, that returns how long it took: the machine's speed now."""
    import numpy as np
    x = np.linspace(0.1, 5.0, 15)

    def probe():
        t = perf_counter()
        for _ in range(40):
            float(np.sum(np.exp(-x) * x / (1.0 + x)))
        return perf_counter() - t

    return probe


def make_import_probe():
    """A fixed piece of import-like work, unmarshalling a module's code and
    running its body, which defines classes and functions; returns how long
    it took.  Its median before casmat's import scales the import."""
    text = "\n".join(
        "class C%d:\n    x = %d\n    def f(self, a, b=%d):\n"
        "        return a + b + self.x\n"
        "    @property\n    def p(self):\n        return [self.x] * 3\n"
        "def g%d(*args, **kw):\n    return len(args) + len(kw)\n"
        "T%d = {'k%d': (%d, 'v%d'), 'n': [%d, %d.5]}\n" % ((i,) * 10)
        for i in range(120))
    blob = marshal.dumps(compile(text, "<probe>", "exec"))

    def probe():
        t = perf_counter()
        exec(marshal.loads(blob), {"__name__": "probe"})
        return perf_counter() - t

    return probe


def run_round(cases, probe):
    """Evaluate every case once, in order.

    Returns each evaluation's latency scaled to the reference speed (see
    PROBE_REF_S), the round's unscaled time, and the outputs."""
    latencies, outputs, raw_s = [], [], 0.0
    before = probe()
    for case in cases:
        t = perf_counter()
        try:
            raw, exc = case.call(), None
        except Exception as e:  # counted as a failed evaluation
            raw, exc = None, e
        dt = perf_counter() - t
        after = probe()
        raw_s += dt
        latencies.append(dt * PROBE_REF_S / min(before, after))
        outputs.append((raw, exc))
        before = after
    return latencies, raw_s, outputs


def percentile(values, pct):
    import numpy as np  # imported after casmat, whose import is timed
    return float(np.percentile(values, pct))


def fastest(groups, k):
    """The k fastest timings of each group, pooled.

    A group holds one slot's timings: the same case of every input set,
    whose inputs differ only by the draws' jitter.  Other tenants of a
    shared machine slow random stretches of a run, by up to 1.7x on a
    2-vCPU cloud VM, so a group's timings scatter upwards; its fastest are
    what the program itself costs.  A fixed k keeps the pooled sample, and
    so every percentile's position in it, the same in every run."""
    return [x for g in groups for x in sorted(g)[:k]]


def tail_percentile(n):
    """The highest percentile of n samples with ten samples beyond it."""
    return 100.0 * (n - 11) / (n - 1)


def layer_metrics(s):
    """Per-layer metrics of one traced round's span summary."""
    zero = {"calls": 0, "work": 0.0, "flags": 0, "self_s": 0.0, "total_s": 0.0}
    g = lambda name: s.get(name, zero)
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def per(a, b):
        return a / b if b else 0.0

    cli, parse = g("cli"), g("cli.parse")
    put("cli.calls", cli["calls"], "count")
    # parsing runs inside cli.main, so it is added back to the CLI's own time
    put("cli.self_ms", (cli["self_s"] + parse["total_s"]) * 1e3, "ms")
    put("cli.parse_ms", parse["total_s"] * 1e3, "ms")
    put("casimir2d.self_ms", g("casimir2d")["self_s"] * 1e3, "ms")
    put("casimir4d.self_ms", g("casimir4d")["self_s"] * 1e3, "ms")
    integ = g("quadrature.integrate")
    put("quadrature.integrate.calls", integ["calls"], "count")
    put("quadrature.integrate.evals", integ["work"], "count")
    put("quadrature.integrate.evals_per_call",
        per(integ["work"], integ["calls"]), "evals/call")
    put("quadrature.integrate.self_ms", integ["self_s"] * 1e3, "ms")
    put("quadrature.integrate.unconverged", integ["flags"], "count")
    panel = g("quadrature.panel")
    put("quadrature.panel.calls", panel["calls"], "count")
    put("quadrature.panel.self_ms", panel["self_s"] * 1e3, "ms")
    series = g("quadrature.series")
    put("quadrature.series.calls", series["calls"], "count")
    put("quadrature.series.terms", series["work"], "count")
    put("quadrature.series.terms_per_call",
        per(series["work"], series["calls"]), "terms/call")
    put("quadrature.series.self_ms", series["self_s"] * 1e3, "ms")
    put("quadrature.series.unconverged", series["flags"], "count")
    for layer, has_points in (("special_functions.hypoexp", True),
                              ("special_functions.erlang", True),
                              ("special_functions.polylog", False),
                              ("spectral", True)):
        d = g(layer)
        put(layer + ".calls", d["calls"], "count")
        if has_points:
            put(layer + ".points", d["work"], "count")
            put(layer + ".ns_per_point", per(d["self_s"] * 1e9, d["work"]),
                "ns/point")
        put(layer + ".self_ms", d["self_s"] * 1e3, "ms")
    loop = g("scattering.loop_r_imag")
    put("scattering.loop_r_imag.calls", loop["calls"], "count")
    put("scattering.loop_r_imag.points", loop["work"], "count")
    put("scattering.loop_r_imag.self_ms", loop["self_s"] * 1e3, "ms")
    ps = g("scattering.phase_shift")
    put("scattering.phase_shift.calls", ps["calls"], "count")
    put("scattering.phase_shift.self_ms", ps["self_s"] * 1e3, "ms")
    put("scattering.real_axis.self_ms",
        g("scattering.real_axis")["self_s"] * 1e3, "ms")
    return out


def work_counts(s):
    """The machine-independent part of a span summary."""
    return {k: (v["calls"], v["work"], v["flags"])
            for k, v in sorted(s.items())}


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "casmat" / "__init__.py").is_file():
        print("perfbench: no casmat sources under %s" % (root / "src"),
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one thread
    # one CPU, so that the speed probe measures the CPU the timed work runs on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(root / "src"))
    import_probe = make_import_probe()
    import_probe_s = statistics.median(import_probe() for _ in range(PROBES))
    t = perf_counter()
    import casmat.cli  # noqa: F401  (timed: casmat's own import cost)
    import casmat.casimir2d  # noqa: F401
    import casmat.casimir4d  # noqa: F401
    import_s = perf_counter() - t

    import numpy as np
    import tracer as TR
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(W.WORKLOADS)), file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    m = W.modules()
    probe = make_probe()
    # private to this run, so that runs in one checkout never share a table
    workdir = root / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    atexit.register(shutil.rmtree, workdir, True)

    def draw(k):
        """Input set k, from its own generator; set wl.sets warms up."""
        setdir = workdir / str(k)
        setdir.mkdir(exist_ok=True)
        return wl.make(m, np.random.default_rng([args.seed, k]), setdir)

    # ---- set-up, repeated: inputs, references, warm-up
    setup_s, setup_scaled, input_digests, warm = [], [], [], Tally()
    for _ in range(SETUPS):
        before = probe()
        t = perf_counter()
        sets = [draw(k) for k in range(wl.sets)]
        # the warm-up evaluates the last case of each kind of a set of its
        # own, so that no timed input has been evaluated before
        for case in {c.kind: c for c in draw(wl.sets)}.values():
            _, _, ((raw, exc),) = run_round([case], probe)
            warm.judge(case, raw, exc)
        dt = perf_counter() - t
        setup_s.append(dt)
        setup_scaled.append(dt * PROBE_REF_S / min(before, probe()))
        input_digests.append(repr([[(c.kind, c.params,
                                     [(float(v), float(e)) for v, e in c.refs])
                                    for c in cases] for cases in sets]))
    inputs_repeat = len(set(input_digests)) == 1
    n_cases = len(sets[0])
    if any(len(cases) != n_cases for cases in sets):
        raise RuntimeError("input sets differ in length")

    total = Tally()
    total.calls += warm.calls
    total.failed += warm.failed
    first_pass = Tally()             # every set's first evaluation
    prints = {}                      # fingerprints of each set's first round
    rounds_repeat = True
    samples = [[] for _ in range(n_cases)]  # first-pass latencies, by slot
    round_seconds = []               # unscaled, for the details line
    round_scaled = []
    repeat_ratio = []                # a repeated round's time / its first's
    first_scaled = {}

    def one_round(k):
        nonlocal rounds_repeat
        lat, raw_s, outs = run_round(sets[k], probe)
        tally = Tally()
        fp = [tally.judge(c, raw, exc) for c, (raw, exc) in zip(sets[k], outs)]
        total.calls += tally.calls
        total.failed += tally.failed
        if k not in prints:
            prints[k], first_scaled[k] = fp, sum(lat)
            first_pass.merge(tally)
            for per_slot, x in zip(samples, lat):
                per_slot.append(x)
        else:
            rounds_repeat = rounds_repeat and fp == prints[k]
            repeat_ratio.append(sum(lat) / first_scaled[k])
        round_seconds.append(raw_s)
        round_scaled.append(sum(lat))

    start = perf_counter()
    deadline = start + args.seconds
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "input_sets": wl.sets,
               "import_s": import_s, "import_probe_s": import_probe_s,
               "setup_s_each": setup_s, "setup_scaled_each": setup_scaled,
               "rel_tol": REL_TOL,
               "roundoff_floor": "%d ulp(|ref|)" % ROUNDOFF_ULPS}
    metrics = {}
    correct = inputs_repeat and warm.failed == 0

    if args.trace == 0:
        while len(round_seconds) <= wl.sets or perf_counter() < deadline:
            one_round(len(round_seconds) % wl.sets)
        kept = fastest(samples, (wl.sets + 1) // 2)
        tail_pct = tail_percentile(len(kept))
        tail = percentile(kept, tail_pct)
        beyond = sum(1 for x in kept if x > tail)
        details.update(samples_kept=len(kept), tail_pct=tail_pct,
                       samples_beyond_tail=beyond,
                       repeat_over_first=statistics.median(repeat_ratio))
        correct = correct and beyond >= 10
        fp = first_pass
        # the median latency is the median of the slots' medians: pooled,
        # the median of roundtrip_t0's kept samples falls on the border of
        # its cheaper and its costlier pressures, and its spread over five
        # seeds was 10%, against 3% for this
        metrics = {
            "setup_s": (import_s * IMPORT_PROBE_REF_S / import_probe_s
                        + statistics.median(setup_scaled), "s"),
            "evals_per_s": (len(kept) / sum(kept), "1/s"),
            "eval_ms_p50": (statistics.median(map(statistics.median, samples))
                            * 1e3, "ms"),
            "eval_ms_tail": (tail * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "ok_frac": (1.0 - fp.failed / fp.calls, "frac"),
            "converged_frac": (1.0 - fp.unconverged / fp.calls, "frac"),
            "err_bar_ok_frac": (1.0 - fp.err_bar_miss / fp.err_bar_base
                                if fp.err_bar_base else 1.0, "frac"),
            "err_rel_gmean": (math.exp(statistics.fmean(
                math.log(x) for x in fp.rel_err)), "frac"),
        }
        digest_src = repr([prints[k] for k in range(wl.sets)])
    else:
        # one input set throughout, so that traced rounds can be compared
        half = start + 0.5 * args.seconds
        while not round_seconds or perf_counter() < half:
            one_round(0)
        untraced = list(round_scaled)
        tr = TR.Tracer(TR.layer_targets(m))
        tr.install()
        summaries = []
        try:
            while len(summaries) < 2 or perf_counter() < deadline:
                lo = len(tr)
                one_round(0)
                summaries.append(tr.summarize(lo, len(tr)))
        finally:
            tr.remove()
        traced = round_scaled[len(untraced):]
        counts_repeat = all(work_counts(s) == work_counts(summaries[0])
                            for s in summaries)
        correct = correct and counts_repeat
        per_round = [layer_metrics(s) for s in summaries]
        for name, (value, unit) in per_round[0].items():
            if unit == "ms" or unit == "ns/point":
                value = statistics.median(r[name][0] for r in per_round)
            metrics[name] = (value, unit)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0,
            "frac")
        details.update(untraced_rounds=len(untraced),
                       traced_rounds=len(traced),
                       spans=len(tr), absent_layers=tr.absent,
                       work_counts_repeat=counts_repeat,
                       work_counts=work_counts(summaries[0]))
        spans_dir = root / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        tr.save(spans_dir / ("spans-%s-%d.npz" % (args.workload, args.seed)))
        digest_src = repr(prints[0]) + repr(work_counts(summaries[0]))

    fp = first_pass
    correct = correct and rounds_repeat and total.failed == 0
    details.update(
        rounds=len(round_seconds), round_s=round_seconds,
        calls_per_round=n_cases,
        inputs_repeat=inputs_repeat, rounds_repeat=rounds_repeat,
        bases={"calls": fp.calls, "err_bar_base": fp.err_bar_base,
               "rel_err_values": len(fp.rel_err)},
        first_pass={"failed": fp.failed, "unconverged": fp.unconverged,
                    "err_bar_miss": fp.err_bar_miss},
        by_kind=fp.by_kind,
        digest=hashlib.sha256(digest_src.encode()).hexdigest()[:16])
    print(json.dumps({"details": details}, default=str))
    print(json.dumps({
        "correct": bool(correct), "attempted": total.calls,
        "failed": total.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
