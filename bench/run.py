"""Benchmark of the gintools gin engine, one workload per invocation.

    python3 bench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports gintools from its
``src/``.  Set-up (import, inputs, one warm-up item) is repeated
SETUP_REPEATS times; then whole rounds of timed items run until
``--seconds`` have passed.  The machine's speed drifts by tens of percent
within a minute, so every item is timed between two runs of a fixed
reference loop and scaled to the loop's nominal speed: all times reported
are in calibrated seconds.  With ``--trace 1`` set-up and every other
round run under the span tracer and the per-layer metrics are printed
instead.  Correctness checks run after the timed part.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
MIN_ROUNDS = 3

# The reference loop: dict lookups on prebuilt tuple keys and small-int
# arithmetic.  It allocates no container the garbage collector tracks, so
# its time does not depend on the program's heap or on gc settings.
REF_ITERATIONS = 20_000
REF_REPEATS = 3
REF_NOMINAL_S = 0.0026   # one pass at the nominal reference speed
_REF_KEYS = tuple((i % 17, i % 13, i % 7) for i in range(256))
_REF_TABLE = {key: i for i, key in enumerate(_REF_KEYS)}


def reference_pass():
    keys, table, acc = _REF_KEYS, _REF_TABLE, 1
    for i in range(REF_ITERATIONS):
        acc = (acc * 31 + table[keys[i & 255]]) % 32003
    return acc


def reference_time():
    """Best of a few passes: drift is slow, preemption spikes are not."""
    best = None
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        reference_pass()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def import_gintools():
    """Import gintools afresh from the checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "gintools" or n.startswith("gintools.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("gintools")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"gintools imported from {package.__file__}, not {SRC}")
    names = ("cli", "corpus", "gin", "groebner", "ring")
    return SimpleNamespace(**{n: importlib.import_module(f"gintools.{n}")
                              for n in names})


class Clock:
    """Times callables between reference passes and keeps the factors."""

    def __init__(self):
        self.factors = {}
        self.refs = []
        self.last_ref = self._ref()

    def _ref(self):
        ref = reference_time()
        self.refs.append(ref)
        return ref

    def time(self, item, fn):
        """(raw seconds, calibrated seconds, result or exception)."""
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:   # one failed item must not end the run
            traceback.print_exc()
            result = exc
        raw = time.perf_counter() - start
        ref = self._ref()
        factor = REF_NOMINAL_S / ((self.last_ref + ref) / 2)
        self.last_ref = ref
        self.factors[item] = factor
        return raw, raw * factor, result


def layer_metrics(spans, factors, setup_groups, traced_rounds):
    """Per-layer figures: one set-up plus one round of the workload.

    Times are the median over set-up repetitions plus the median over
    traced rounds; counts come from the last set-up and the first traced
    round, which are fixed by the seed, so they repeat exactly.
    """
    setups = [summarize(spans, factors, g) for g in setup_groups]
    rounds = [summarize(spans, factors, r) for r in traced_rounds]

    def get(stats, layer, field):
        return stats.get(layer, {}).get(field, 0)

    def seconds(layer, field="time"):
        return (statistics.median(get(s, layer, field) for s in setups)
                + statistics.median(get(s, layer, field) for s in rounds))

    def count(layer, field="calls"):
        return get(setups[-1], layer, field) + get(rounds[0], layer, field)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    return {
        "groebner.quotient_s": seconds("groebner.quotient"),
        "groebner.quotient_self_s": seconds("groebner.quotient", "self"),
        "groebner.quotient_calls": count("groebner.quotient"),
        "groebner.intersect_s": seconds("groebner.intersect"),
        "groebner.intersect_self_s": seconds("groebner.intersect", "self"),
        "groebner.intersect_calls": count("groebner.intersect"),
        "groebner.buchberger_s": seconds("groebner.buchberger"),
        "groebner.buchberger_self_s": seconds("groebner.buchberger", "self"),
        "groebner.buchberger_calls": count("groebner.buchberger"),
        "groebner.gb_elements": count("groebner.buchberger", "observed"),
        "groebner.normal_form_s": seconds("groebner.normal_form"),
        "groebner.normal_form_calls": count("groebner.normal_form"),
        "groebner.nf_nonzero_ratio": ratio(
            count("groebner.normal_form", "observed"),
            count("groebner.normal_form")),
        "ring.change_s": seconds("ring.change"),
        "ring.change_calls": count("ring.change"),
        "ring.restrict_s": seconds("ring.restrict"),
        "gin.gin_s": seconds("gin.gin"),
        "gin.gin_self_s": seconds("gin.gin", "self"),
        "gin.gin_calls": count("gin.gin"),
        "gin.samples": count("gin.samples"),
        "gin.cache_hit_ratio": ratio(count("gin.hits"), count("gin.gin")),
        "gin.slice_s": seconds("gin.slice"),
        "gin.gap_s": seconds("gin.gap"),
        "gin.trace_s": seconds("gin.trace"),
        "staircase.table_s": seconds("staircase.table"),
        "corpus.build_s": seconds("corpus.build"),
        "corpus.load_s": seconds("corpus.load"),
        "parsing.parse_s": seconds("parsing.parse"),
        "cli.overhead_s": seconds("cli.main") - seconds("cli.entry_report"),
    }


def item_medians(rounds, key):
    """Each item's median time over the rounds, in round order.

    Every round runs the same operations, so the sum of these medians is
    the time of one round with the noise of each item damped separately.
    """
    return [statistics.median(rnd["items"][k][key] for rnd in rounds)
            for k in range(len(rounds[0]["items"]))]


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    clock = Clock()

    # set-up: import, inputs and one warm-up item, repeated
    setup_s = []
    for k in range(SETUP_REPEATS):
        group = f"setup{k}"

        def set_up():
            lib = import_gintools()
            if tracer:
                tracer.item = (group, 0)
                tracer.install()
            try:
                state = workload.setup(lib, args.seed)
                workload.warmup(state, args.seed)()
            finally:
                if tracer:
                    tracer.uninstall()
            return state
        _, calibrated, state = clock.time((group, 0), set_up)
        if isinstance(state, Exception):
            raise SystemExit(f"set-up failed: {state!r}")
        setup_s.append(calibrated)

    # timed rounds; with tracing every odd round is traced
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < workload.max_rounds and (
            len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline):
        r = len(rounds)
        traced = bool(tracer) and r % 2 == 1
        if traced:
            tracer.install()
        timings = []
        for i, (label, fn) in enumerate(workload.items(state, args.seed, r)):
            if tracer:
                tracer.item = (r, i)
            raw, calibrated, result = clock.time((r, i), fn)
            timings.append({"label": label, "raw": raw, "cal": calibrated,
                            "result": result})
        if traced:
            tracer.uninstall()
        rounds.append({"traced": traced, "items": timings})
        if len(rounds) == MIN_ROUNDS:
            # a fixed amount of work, however many rounds the time allows
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # correctness, outside the timed part
    check = workload.checker(state)
    attempted = failed = 0
    problems = []
    for r, rnd in enumerate(rounds):
        for item in rnd["items"]:
            attempted += 1
            if isinstance(item["result"], Exception):
                failed += 1
                continue
            for problem in check(item["label"], item["result"]):
                problems.append(f"round {r} item {item['label']}: {problem}")
    for problem in problems:
        print(problem, file=sys.stderr)

    plain = [rnd for rnd in rounds if not rnd["traced"]]
    item_s = item_medians(plain, "cal")
    if args.trace:
        traced_rounds = [r for r, rnd in enumerate(rounds) if rnd["traced"]]
        metrics = layer_metrics(tracer.spans, clock.factors,
                                [f"setup{k}" for k in range(SETUP_REPEATS)],
                                traced_rounds)
        traced_s = item_medians([rounds[r] for r in traced_rounds], "cal")
        metrics["bench.ref_loop_s"] = statistics.median(clock.refs)
        metrics["bench.raw_wall_s"] = sum(item_medians(plain, "raw"))
        metrics["bench.trace_overhead_pct"] = 100 * (sum(traced_s) / sum(item_s) - 1)
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": sum(item_s),
            "item_p50_s": statistics.median(item_s),
            "peak_rss_mb": peak_rss_mb,
        }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    detail = dict(result, setup_s=setup_s, refs=clock.refs, problems=problems,
                  rounds=[{"traced": rnd["traced"],
                           "items": [[str(it["label"]), it["raw"], it["cal"]]
                                     for it in rnd["items"]]}
                          for rnd in rounds])
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
