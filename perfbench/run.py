"""noetherform benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload axioms|corpus|scale|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
./src, nothing is installed.  A workload is a fixed cycle of units (see
units.py).  Each sample is one unit in a fresh interpreter, one process at
a time, so the engine's module caches start cold.  The cycle repeats until
--seconds have passed and the workload's minimum number of cycles is done.
Every time is normalised to a reference machine speed (see worker.py).

--trace 0 prints the end-to-end metrics:
  setup_s          interpreter start to inputs ready: mean over units of
                   each unit's median
  run_s            the whole unit list: sum over units of the median
                   sample's engine time (spawn to return for cli)
  verdict_p50_ms   median over the workload's verdicts of each verdict's
                   median latency over its samples
  verdict_tail_ms  the workload's fixed tail percentile of the same, with
                   at least ten timed samples beyond it
  peak_rss_mb      largest peak resident memory of any sample
--trace 1 runs each unit untraced and then traced, and prints per-layer
calls and self time (median sample per unit, summed over units), counters,
cache ratios, the tracing overhead and how much of the traced run the
top-level spans cover.  Spans go to perfbench/out/spans/.

Every verdict is checked against a known answer; a wrong verdict or an
exception makes the command exit 1.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import units  # noqa: E402

SAMPLE_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

LAYERS = (
    "axioms.axiom_suite", "core.compose", "slominski.as_form",
    "slominski.enumerate_homs", "slominski.subalgebra_lattice",
    "slominski.is_normal_subalgebra", "slominski.generate_congruence",
    "slominski.element_morphism", "slominski.quotient_object",
    "slominski.subobject_object", "gen.generate", "gen.extend_homs",
    "gen.lift_ladder", "lemmas.verify", "diagram.check", "zigzag.chase",
    "zigzag.induced_relation", "pyramid.build_pyramid", "pyramid.decide_induction",
    "pyramid.quotient_iso", "groups.build", "parser.parse_file", "cli.main",
    "cli.import",
)
COUNTERS = (
    ("lattice.ops", "lattice.ops"),
    ("slominski.enumerate_homs.cache_hits", "slominski.enumerate_homs.hits"),
    ("slominski.enumerate_homs.cache_misses", "slominski.enumerate_homs.misses"),
    ("slominski.subalgebra_lattice.cache_hits", "slominski.subalgebra_lattice.hits"),
    ("slominski.subalgebra_lattice.cache_misses", "slominski.subalgebra_lattice.misses"),
)
RATIOS = (
    "slominski.quotient_object.distinct_per_call",
    "slominski.subobject_object.distinct_per_call",
    "gen.ladder_yield",
    "trace.overhead",
    "trace.coverage",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [(name, "count") for name, _ in COUNTERS]
    out += [(name, "ratio") for name in RATIOS]
    return out


class SampleError(RuntimeError):
    pass


def sample(workload, unit, seed, trace, plant=False, record=False) -> dict:
    """Run one unit in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, unit, str(seed),
           "1" if trace else "0"]
    extra = (["--plant"] if plant else []) + (["--record"] if record else [])
    with subprocess.Popen(cmd + [repr(perf_counter())] + extra, cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SampleError(f"{workload}/{unit} took longer than {SAMPLE_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SampleError(f"{workload}/{unit} exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values, p):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median_of(samples, fn):
    return statistics.median(fn(s) for s in samples)


def collect(wl, unit_names, seed, seconds, trace, min_cycles, plant):
    """Cycle the units until the time is up; returns (untraced, traced,
    complete cycles) with the samples listed per unit."""
    plain = {u: [] for u in unit_names}
    traced = {u: [] for u in unit_names}
    t0 = perf_counter()
    cycles = 0
    while True:
        for u in unit_names:
            if cycles >= min_cycles and perf_counter() - t0 >= seconds:
                return plain, traced, cycles
            plain[u].append(sample(wl.name, u, seed, False, plant))
            if trace:
                traced[u].append(sample(wl.name, u, seed, True))
        cycles += 1


def end_to_end(wl, plain, cycles) -> tuple[dict, list[str]]:
    # every unit runs the same verdicts in the same order in each sample, so
    # each verdict's latency is its median over the unit's samples; the
    # percentiles are taken over those
    typical = []  # (median latency, samples)
    for ss in plain.values():
        typical += [(statistics.median(lat), len(ss))
                    for lat in zip(*(s["latencies"] for s in ss))]
    typical.sort()
    medians = [t for t, _ in typical]
    tail = percentile(medians, wl.tail_percentile)
    beyond = sum(n for t, n in typical if t > tail)
    values = {
        "setup_s": statistics.fmean(median_of(ss, lambda s: s["setup_s"]) for ss in plain.values()),
        "run_s": sum(median_of(ss, lambda s: s["run_s"]) for ss in plain.values()),
        "verdict_p50_ms": 1000.0 * statistics.median(medians),
        "verdict_tail_ms": 1000.0 * tail,
        "peak_rss_mb": max(s["rss_mb"] for ss in plain.values() for s in ss),
    }
    notes = [
        f"verdicts: {len(typical)}, each timed {min(n for _, n in typical)} to "
        f"{max(n for _, n in typical)} times ({cycles} complete cycles); "
        f"verdict_p50_ms and verdict_tail_ms are percentiles of their median latencies",
        f"verdict_tail_ms is p{wl.tail_percentile:g}; {beyond} timed samples lie beyond it",
    ]
    for u, ss in plain.items():
        runs = ", ".join(f"{s['run_s']:.3f}" for s in ss)
        raw = ", ".join(f"{s['raw_run_s']:.3f}" for s in ss)
        notes.append(f"unit {u}: run_s [{runs}] (raw [{raw}]), setup_s median "
                     f"{median_of(ss, lambda s: s['setup_s']):.3f}")
    speed = statistics.median(s["speed"] for ss in plain.values() for s in ss)
    raw = sum(median_of(ss, lambda s: s["raw_run_s"]) for ss in plain.values())
    notes.append(f"times are normalised to the reference speed (median factor "
                 f"{speed:.3f}); raw run_s {raw:.3f} s, raw setup_s "
                 f"{statistics.fmean(median_of(ss, lambda s: s['raw_setup_s']) for ss in plain.values()):.3f} s")
    return values, notes


def layers(plain, traced) -> tuple[dict, list[str]]:
    def total(field, name):
        return sum(median_of(ss, lambda s: s[field].get(name, 0)) for ss in traced.values())

    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = total("calls", layer)
        values[f"{layer}.self_s"] = total("self_s", layer)
    for name, key in COUNTERS:
        values[name] = total("counters", key)
    for name in ("slominski.quotient_object", "slominski.subobject_object"):
        distinct = sum(ss[0]["keyed"].get(name, (0, 0))[0] for ss in traced.values())
        calls = sum(ss[0]["keyed"].get(name, (0, 0))[1] for ss in traced.values())
        values[f"{name}.distinct_per_call"] = distinct / calls if calls else 0.0
    lifts = total("calls", "gen.lift_ladder")
    values["gen.ladder_yield"] = (total("counters", "gen.ladder_instances") / lifts
                                  if lifts else 0.0)
    traced_run = sum(median_of(ss, lambda s: s["run_s"]) for ss in traced.values())
    plain_run = sum(median_of(ss, lambda s: s["run_s"]) for ss in plain.values())
    values["trace.overhead"] = traced_run / plain_run
    values["trace.coverage"] = sum(
        median_of(ss, lambda s: s["coverage"] * s["run_s"]) for ss in traced.values()
    ) / traced_run

    notes = [f"trace.overhead = traced run_s {traced_run:.3f} s / untraced run_s "
             f"{plain_run:.3f} s",
             f"ratios: quotient/subobject distinct_per_call = distinct (object, key) "
             f"requests / calls; gen.ladder_yield = four and five lemma instances / "
             f"{lifts:g} lift_ladder calls"]
    spent: dict[str, dict] = {}
    for ss in traced.values():
        for label, layer_s in ss[0]["by_label"].items():
            acc = spent.setdefault(label, {})
            for name, v in layer_s.items():
                acc[name] = acc.get(name, 0.0) + v
    for label, acc in sorted(spent.items(), key=lambda kv: -kv[1]["verdict"]):
        top = sorted(((v, n) for n, v in acc.items() if n != "verdict"), reverse=True)[:3]
        parts = ", ".join(f"{n} {v:.3f}" for v, n in top)
        notes.append(f"verdicts {label}: {acc['verdict']:.3f} s (inclusive: {parts})")
    for u, ss in traced.items():
        notes.append(f"unit {u}: {ss[0]['spans']} spans in {ss[0]['span_file']}")
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(units.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one cycle of the workload's smallest unit")
    ap.add_argument("--plant", action="store_true",
                    help="make one known answer wrong (the smoke test expects exit 1)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "noetherform", "__init__.py")):
        print(f"error: no engine source at {ROOT}/src/noetherform", file=sys.stderr)
        return 2
    wl = units.WORKLOADS[args.workload]
    if args.smoke:
        unit_names = (units.SMOKE_UNITS[wl.name],)
    else:
        unit_names = wl.units if args.trace else wl.cycle
    min_cycles = 1 if (args.smoke or args.trace) else wl.min_cycles
    try:
        plain, traced, cycles = collect(wl, unit_names, args.seed, args.seconds,
                                        args.trace == 1, min_cycles, args.plant)
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    every = [s for ss in list(plain.values()) + list(traced.values()) for s in ss]
    attempted = sum(s["attempted"] for s in every)
    failed = sum(s["wrong"] for s in every)
    if args.trace:
        values, notes = layers(plain, traced)
        names = per_layer_metrics()
    else:
        values, notes = end_to_end(wl, plain, cycles)
        names = list(END_TO_END)
    for line in notes:
        print(line)
    print(f"wrong_verdicts {failed} of {attempted} attempted")
    for s in every:
        for problem in s["problems"]:
            print(f"WRONG {s['unit']}: {problem}")
    metrics = {}
    for name, unit in names:
        print(f"{name} {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
