"""One benchmark sample: a fresh interpreter that sets up and runs one unit.

    python3 perfbench/worker.py WORKLOAD UNIT SEED TRACE SPAWNED [--plant] [--record]

SPAWNED is the parent's time.perf_counter() just before it started this
process (the same monotonic clock on Linux), so set-up time counts the
interpreter start.  The last line of stdout is one JSON object with the
sample's timings, verdict latencies, wrong verdicts and, when TRACE is 1,
the per-layer spans.  Module caches start cold, as in every CLI call.

On a shared machine the speed at which Python runs can drift by a third
within minutes, with CPU time equal to wall time.  Every time reported is
therefore normalised to a machine that runs one SpeedProbe in PROBE_S
seconds: a time measured over [t0, t1] is multiplied by PROBE_S / the mean
probe time near that interval.  The raw times are reported too.
"""

import bisect
import gc
import os
import signal
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

PROBE_S = 0.001


class SpeedProbe:
    """Measures how fast the machine runs Python while the sample runs.

    A probe times a fixed piece of pure-Python work that does not touch the
    engine (dict, tuple and sort operations on small ints, as the engine
    does; about 1 ms), with the collector off so that objects the engine
    left alive do not slow it.  Probes run a few times at the start and the
    end and, from a timer signal, every PERIOD_S seconds in between.
    `spent` is the probes' own time, which the sample's timings subtract.
    """

    PERIOD_S = 0.05
    ITERATIONS = 2000

    def __init__(self):
        self.at = []
        self.times = []
        self.spent = 0.0

    def probe(self, *_signal_args):
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        d = {}
        for i in range(self.ITERATIONS):
            k = (i % 97, i % 89)
            d[k] = d.get(k, 0) + i
        tuple(sorted(d.items()))
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.at.append(t0)
        self.times.append(t1 - t0)
        self.spent += perf_counter() - t0

    def start(self, probes=5):
        for _ in range(probes):
            self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self, probes=5):
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(probes):
            self.probe()

    def scale(self, t0, t1):
        """PROBE_S / the mean time of the probes that started within one
        period of [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - self.PERIOD_S)
        hi = bisect.bisect_right(self.at, t1 + self.PERIOD_S)
        near = self.times[lo:hi] or self.times
        return PROBE_S * len(near) / sum(near)


class Ctx:
    """Times verdicts and checks them against their known answers."""

    def __init__(self, speed, tracer=None, plant=False):
        self.speed = speed
        self.tracer = tracer
        self.plant = plant
        self.windows = []  # (t0, t1, probe time inside, is a verdict)
        self.attempted = 0
        self.wrong = 0
        self.problems = []
        self.digests = []
        self.by_label = {}

    def call(self, name, fn, /, *args, **kwargs):
        """Call into the engine from the benchmark, inside a span when traced."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(name, fn, *args, **kwargs)

    def timed(self, fn):
        """Engine work that counts towards run time but is not a verdict."""
        t0, p0 = perf_counter(), self.speed.spent
        out = fn()
        self.windows.append((t0, perf_counter(), self.speed.spent - p0, False))
        return out

    def verdict(self, label, work, check):
        """Time work(); check(result) returns None or what is wrong."""
        self.attempted += 1
        before = dict(self.tracer.total_s) if self.tracer is not None else None
        t0, p0 = perf_counter(), self.speed.spent
        try:
            out = work()
        except Exception as exc:  # a verdict that raises is a wrong verdict
            self._done(label, t0, p0, before)
            self.fail(label, f"raised {exc!r}")
            return
        self._done(label, t0, p0, before)
        try:
            problem = check(out)
        except Exception as exc:
            problem = f"check raised {exc!r}"
        if problem:
            self.fail(label, problem)

    def _done(self, label, t0, p0, before):
        t1 = perf_counter()
        self.windows.append((t0, t1, self.speed.spent - p0, True))
        if before is not None:
            spent = self.by_label.setdefault(label, {"verdict": 0.0})
            spent["verdict"] += t1 - t0
            for name, total in self.tracer.total_s.items():
                d = total - before.get(name, 0.0)
                if d > 0:
                    spent[name] = spent.get(name, 0.0) + d

    def fail(self, label, problem):
        self.wrong += 1
        if len(self.problems) < 10:
            self.problems.append(f"{label}: {problem}")

    def expect(self, value):
        """A known answer; under --plant the first one is made wrong."""
        if self.plant:
            self.plant = False
            return value + 1 if isinstance(value, int) else ("not", value)
        return value

    def count(self, name):
        if self.tracer is not None:
            self.tracer.count(name)

    def digest(self, value):
        self.digests.append(value)

    def timings(self):
        """(normalised verdict latencies, normalised work, raw work)."""
        latencies, work, raw = [], 0.0, 0.0
        for t0, t1, probes, is_verdict in self.windows:
            dt = t1 - t0 - probes
            norm = dt * self.speed.scale(t0, t1)
            raw += dt
            work += norm
            if is_verdict:
                latencies.append(norm)
        return latencies, work, raw


def main(argv):
    workload, unit, seed, trace, spawned = argv[:5]
    seed, trace, spawned = int(seed), trace == "1", float(spawned)
    speed = SpeedProbe()
    speed.start()
    plant, record = "--plant" in argv, "--record" in argv
    if not os.path.isfile(os.path.join(SRC, "noetherform", "__init__.py")):
        print(f"error: no engine source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    tracer = None
    if trace:
        import tracer as T

        tracer = T.Tracer(f"{workload}/{unit}/seed{seed}/pid{os.getpid()}")
    if workload == "cli":
        import importlib

        if tracer is not None:
            tracer.span("cli.import", importlib.import_module, "noetherform.cli")
        else:
            importlib.import_module("noetherform.cli")
    import noetherform

    if os.path.dirname(os.path.dirname(os.path.abspath(noetherform.__file__))) != SRC:
        print(f"error: noetherform imported from {noetherform.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if tracer is not None:
        T.install(tracer)

    import units

    ctx = Ctx(speed, tracer, plant)
    setup = units.SETUPS[workload](unit)
    if workload == "cli":
        run = setup(seed, ctx, os.path.join(SRC, "noetherform", "fixtures"))
    else:
        run = setup(seed, ctx)
    ready = perf_counter()
    setup_probes = speed.spent
    run(ctx)
    done = perf_counter()
    all_probes = speed.spent
    speed.stop()

    import json
    import resource

    raw_setup = ready - spawned - setup_probes
    latencies, work, raw_work = ctx.timings()
    if workload == "cli":  # a command's latency runs from spawn to its return
        raw_work = done - spawned - all_probes
        work = raw_work * speed.scale(spawned, done)
        latencies = [work]
    out = {
        "unit": unit,
        "setup_s": raw_setup * speed.scale(spawned, ready),
        "run_s": work,
        "latencies": latencies,
        "raw_setup_s": raw_setup,
        "raw_run_s": raw_work,
        "speed": speed.scale(spawned, done),
        "attempted": ctx.attempted,
        "wrong": ctx.wrong,
        "problems": ctx.problems,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if workload == "corpus":
        if record:
            out["digests"] = ctx.digests
        else:
            with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
                want = json.load(fh)["corpus"][unit]
            if want:
                want[0] = ctx.expect(want[0])
            got = ctx.digests
            bad = sum(a != b for a, b in zip(want, got)) + abs(len(want) - len(got))
            if bad:
                out["wrong"] += bad
                out["problems"].append(f"{bad} of {len(want)} instance digests differ")
    if tracer is not None:
        out.update(_trace_summary(tracer, ctx, speed.scale(ready, done), ready,
                                  workload, unit))
    print(json.dumps(out))
    return 0


def _trace_summary(tracer, ctx, f, ready, workload, unit):
    """Per-layer results of a traced sample; times scaled by f."""
    import noetherform.slominski as S

    top_run = sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent)
                  if p == -1 and s >= ready)
    in_process = sum(t1 - t0 for t0, t1, _, _ in ctx.windows)
    keyed = {n: (len(keys), tracer.calls.get(n, 0)) for n, keys in tracer.keys.items()}
    counters = dict(tracer.counters)
    for name in ("enumerate_homs", "subalgebra_lattice"):
        info = getattr(S, name).__wrapped_original__.cache_info()
        counters[f"slominski.{name}.hits"] = info.hits
        counters[f"slominski.{name}.misses"] = info.misses
    out_dir = os.path.join(HERE, "out", "spans")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-{unit}.jsonl.gz")
    tracer.write(path)
    return {
        "calls": tracer.calls,
        "self_s": {k: v * f for k, v in tracer.self_s.items()},
        "counters": counters,
        "keyed": keyed,
        "coverage": top_run / in_process if in_process else 1.0,
        "by_label": {label: {k: v * f for k, v in spent.items()}
                     for label, spent in ctx.by_label.items()},
        "spans": len(tracer.start),
        "span_file": os.path.relpath(path, ROOT),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
