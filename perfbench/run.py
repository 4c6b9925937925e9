"""aslab benchmark: one workload, one operation at a time, every output checked.

    python3 perfbench/run.py --workload ad-prime --seed 0 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  The workload's
fixed operation list (built from --seed, see workloads.py) is run in a
number of passes that depends on --seconds only (workloads.pass_count).
Each pass is a fresh process: it imports aslab, builds the inputs, runs
every operation once, back to back, and then checks every output.  So each
pass completes the list once from cold: module caches hold only what the
set-up put there, and construction costs land in the operation that first
needs them.  Times are rescaled to a reference machine speed measured by a
calibration loop between operations (see CAL_REF_S), because the speed of a
shared VM drifts; the measured times are in the report line.  An
operation's latency is the median of its passes.  Over the operation list,

  wall_s       sum of those latencies: the operation list completed once
  op_p50_ms    median latency per operation
  op_tail_ms   latency at the highest percentile with at least 10
               operations beyond it
  setup_s      median over the passes of importing aslab and building the
               seeded inputs, up to the first measured operation
               (rescaled by a calibration right after it)
  peak_rss_mb  median over the passes of the peak resident memory of the
               pass process (getrusage)

fail_frac = failed / attempted, with the wrong, errored and refused counts
behind it, is printed in the report and as attempted/failed in the result.

--trace 1 is the separate per-layer run: one pass in this process with
every public aslab entry point wrapped (tracer.py), checked once the
wrappers are removed; one untraced pass in a fresh process for
trace.overhead_ratio; then fixed-operand micro-benchmarks, a cold
make_field in fresh processes and the 7 acceptance suites with their seed-0
hashes.  Its layer times (busy_s, self_s, micro-benchmarks, suites) are
measured, not rescaled; trace.overhead_ratio compares two rescaled passes.
Spans are written to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `--workload all` runs every workload in its
own process and prints one table.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"
TAIL_BEYOND = 10

# first 16 hex digits of sha256(acceptance.suite_json(name, 0)) at the
# commit the benchmark was defined on
SUITE_HASHES = {
    "forward": "8e6c3bcb95ae1692",
    "converse": "011652424b202e90",
    "tensor": "2c2a7ba9d28c0eac",
    "blocksum": "3689de0286c14d21",
    "dickson": "08ac28929a1d4aa3",
    "irred": "1ebe787923b2dc0e",
    "similarity": "e9f7ec967ab42d4a",
}

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

CLI_COMMANDS = (
    "analyze-ad", "decompose-tensor", "primitive-element",
    "subfield-lattice", "irreducible", "dickson",
)


def _import_aslab():
    """Import aslab from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "aslab" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'aslab'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    os.environ.pop("ASLAB_SEED", None)  # cli.main would let it override --seed
    import aslab

    if Path(aslab.__file__).resolve().parent != (src / "aslab").resolve():
        sys.exit(f"error: imported aslab from {aslab.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# running and checking operations

class Checker:
    """Judges outputs; counts wrong, errored and refused operations.

    An output must satisfy the operation's invariant check and, if the
    reference has the input, reproduce the recorded digest.
    """

    def __init__(self, reference):
        self.reference = reference
        self.tally = {"attempted": 0, "wrong": 0, "errored": 0, "refused": 0}
        self.examples = {}

    def fail(self, category, message):
        self.tally[category] += 1
        seen = self.examples.setdefault(category, [])
        if message not in seen and len(seen) < 5:
            seen.append(message)

    def judge(self, op, result, exc):
        """Count one execution; return its output digest if it passed, else None."""
        from workloads import digest, outcome_of_exception

        out = None
        if exc is not None:
            verdict = outcome_of_exception(exc)
        else:
            try:
                out = digest(op.canon(result))
                verdict = op.check(result)
            except Exception as e:  # a malformed result can break rendering or the check
                verdict = ("wrong", f"output not checkable: {type(e).__name__}: {e}")
            expected = self.reference.get(op.key)
            if verdict is None and expected is not None and expected != out:
                verdict = ("wrong", f"output digest {out} differs from reference {expected}")
        self.tally["attempted"] += 1
        if verdict is None:
            return out
        self.fail(verdict[0], f"{op.kind}: {verdict[1]}")
        return None

    def merge(self, tally, examples):
        for key, value in tally.items():
            self.tally[key] += value
        for category, lines in examples.items():
            seen = self.examples.setdefault(category, [])
            seen.extend(line for line in lines if line not in seen)
            del seen[5:]

    @property
    def failed(self):
        return self.tally["wrong"] + self.tally["errored"] + self.tally["refused"]


# The speed of a shared VM drifts by up to a factor of two over seconds, for
# any pure-Python loop alike.  So every time is rescaled to a reference
# speed: a fixed calibration loop is timed between chunks of at least
# CHUNK_S of operations, and each latency in a chunk is multiplied by
# CAL_REF_S over the mean calibration time around it.  A time is thus the
# seconds it takes when the calibration loop takes CAL_REF_S, about its
# fastest on a 2-core Xeon VM.  Code that gets slower moves the operations
# but not the loop, so it still shows.
CAL_REF_S = 1e-3
CHUNK_S = 0.1


class _CalPoly:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def mul(self, other, p=3):
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    out[i + j] = (out[i + j] + x * y) % p
        return _CalPoly(tuple(out))


def _calibration_loop():
    """Polynomial products mod 3 on tuples behind method calls, and a dict:
    the kind of work aslab does, without any aslab code."""
    t0 = time.perf_counter()
    seen = {}
    a = _CalPoly(tuple(i % 3 for i in range(1, 13)))
    for k in range(86):
        c = a.mul(_CalPoly(tuple((i * k + 1) % 3 for i in range(12))))
        seen[c.c[:3]] = seen.get(c.c[:3], 0) + 1
    return time.perf_counter() - t0


def calibrate():
    """Seconds of the calibration loop now: the fastest of three runs."""
    return min(_calibration_loop() for _ in range(3))


def run_pass(ops, tracer=None):
    """Run every operation once, back to back.

    Returns the latencies at the reference speed, the measured latencies,
    and the (result, exception) pair of every operation.
    """
    scaled, measured, outcomes = [], [], []
    before = calibrate()
    chunk_start = chunk_s = 0

    def rescale(start, before, after):
        factor = CAL_REF_S / ((before + after) / 2)
        scaled.extend(t * factor for t in measured[start:])

    for op in ops:
        span = tracer.begin(op.kind if op.kind.startswith("cli.") else "op." + op.kind) if tracer else None
        result = exc = None
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as e:  # counted as refused or errored, never dropped
            exc = e
        elapsed = time.perf_counter() - t0
        if span is not None:
            tracer.end(span, None if exc is None else type(exc).__name__)
        measured.append(elapsed)
        outcomes.append((result, exc))
        chunk_s += elapsed
        if chunk_s >= CHUNK_S:
            after = calibrate()
            rescale(chunk_start, before, after)
            before, chunk_start, chunk_s = after, len(measured), 0
    rescale(chunk_start, before, calibrate())
    return scaled, measured, outcomes


def check_pass(ops, outcomes, checker):
    """Judge the outputs of one pass; the digests of those that passed."""
    return [checker.judge(op, result, exc) for op, (result, exc) in zip(ops, outcomes)]


def load_reference(workload):
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# fresh-process probes

def _probe(args):
    env = dict(os.environ)
    env.pop("ASLAB_SEED", None)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_probe(workload, seed):
    """One cold, checked pass in a fresh process."""
    return _probe(["--pass-probe", "--workload", workload, "--seed", str(seed)])


def merge_passes(passes, checker):
    """Add the passes' tallies to checker; an output that differs between passes is wrong."""
    for res in passes:
        checker.merge(res["tally"], res["examples"])
    for i, outs in enumerate(zip(*(res["digests"] for res in passes))):
        seen = [d for d in outs if d is not None]
        for d in seen[1:]:
            if d != seen[0]:
                checker.fail("wrong", f"operation {i}: output differs between passes")


def cold_make_field_ms():
    return statistics.median(_probe(["--cold-field-probe"])["ms"] for _ in range(3))


# ---------------------------------------------------------------------------
# metrics

def end_to_end(passes):
    typical = [statistics.median(lat) for lat in zip(*(res["latencies"] for res in passes))]
    ranked = sorted(typical)
    n = len(ranked)
    rank = max(1, n - TAIL_BEYOND)  # nearest rank with TAIL_BEYOND operations beyond it
    setups = [res["setup_s"] for res in passes]
    metrics = {
        "wall_s": sum(typical),
        "op_p50_ms": statistics.median(typical) * 1e3,
        "op_tail_ms": ranked[rank - 1] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in passes),
    }
    detail = {
        "operations": n,
        "passes": len(passes),
        "op_tail_percentile": round(100 * rank / n, 2),
        "op_tail_rank": rank,
        "pass_wall_s": [sum(res["latencies"]) for res in passes],
        "pass_measured_wall_s": [res["measured_wall_s"] for res in passes],
        "setup_samples": setups,
        "setup_measured_samples": [res["setup_measured_s"] for res in passes],
    }
    return metrics, detail


NO_SPANS = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": {}, "extra": []}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, traced, untraced, dickson_new_entries):
    """Per-layer metrics (name -> (value, unit)) from one traced pass."""
    s = tracer.summary()
    counts = tracer.counts
    layers = tracer.layers

    def span(name, field):
        return s[name][field] if name in s else NO_SPANS[field]

    analyze_flags = span("ad_analyzer.analyze", "extra")
    oracle = "irred.bivariate_irreducible_oracle"
    cli = tracer.durations("cli.")
    m = {
        "fields.ExtensionField.mul.calls": (counts["fields.ExtensionField.mul"], "count"),
        "fields.ExtensionField.inv.calls": (counts["fields.ExtensionField.inv"], "count"),
        "fields.ExtensionField.busy_s": (layers["fields.ExtensionField"][1], "s"),
        "fields.RationalFunctionField.add.calls": (counts["fields.RationalFunctionField.add"], "count"),
        "fields.RationalFunctionField.mul.calls": (counts["fields.RationalFunctionField.mul"], "count"),
        "fields.RationalFunctionField.busy_s": (layers["fields.RationalFunctionField"][1], "s"),
        "fields.PrimeField.mul.calls": (counts["fields.PrimeField.mul"], "count"),
        "fields.make_field.calls": (span("fields.make_field", "calls"), "count"),
        "fields.make_field.busy_s": (span("fields.make_field", "busy_s"), "s"),
        "ringops.mul.calls": (counts["ringops.mul"], "count"),
        "ringops.divmod_.calls": (counts["ringops.divmod_"], "count"),
        "ringops.gcd.calls": (counts["ringops.gcd"], "count"),
        "ringops.pow_mod.calls": (counts["ringops.pow_mod"], "count"),
        "ringops.busy_s": (layers["ringops"][1], "s"),
        "poly.factor_finite.calls": (span("poly.factor_finite", "calls"), "count"),
        "poly.factor_finite.busy_s": (span("poly.factor_finite", "busy_s"), "s"),
        "poly.min_poly_in_quotient.calls": (span("poly.min_poly_in_quotient", "calls"), "count"),
        "poly.min_poly_in_quotient.busy_s": (span("poly.min_poly_in_quotient", "busy_s"), "s"),
        "poly.is_irreducible_finite.busy_s": (span("poly.is_irreducible_finite", "busy_s"), "s"),
        "linalg.invariant_factors.calls": (span("linalg.invariant_factors", "calls"), "count"),
        "linalg.invariant_factors.busy_s": (span("linalg.invariant_factors", "busy_s"), "s"),
        "linalg.invariant_factors.dim_sum": (sum(span("linalg.invariant_factors", "extra")), "count"),
        "linalg.eigenspace.busy_s": (span("linalg.eigenspace", "busy_s"), "s"),
        "linalg.Matrix.rank.busy_s": (span("linalg.Matrix.rank", "busy_s"), "s"),
        "linalg.ad_matrix.busy_s": (span("linalg.ad_matrix", "busy_s"), "s"),
        "ad_analyzer.analyze.calls": (span("ad_analyzer.analyze", "calls"), "count"),
        "ad_analyzer.analyze.busy_s": (span("ad_analyzer.analyze", "busy_s"), "s"),
        "ad_analyzer.analyze.self_s": (span("ad_analyzer.analyze", "self_s"), "s"),
        "ad_analyzer.check_eigenvector_invertibility.busy_s": (
            span("ad_analyzer.check_eigenvector_invertibility", "busy_s"), "s"),
        "ad_analyzer.certified_ratio": (_ratio(sum(analyze_flags), len(analyze_flags)), "ratio"),
        "tensor.tensor_jordan_type_oracle.calls": (span("tensor.tensor_jordan_type_oracle", "calls"), "count"),
        "tensor.tensor_jordan_type_oracle.busy_s": (span("tensor.tensor_jordan_type_oracle", "busy_s"), "s"),
        "dickson.primitive_element.calls": (span("dickson.primitive_element", "calls"), "count"),
        "dickson.primitive_element.busy_s": (span("dickson.primitive_element", "busy_s"), "s"),
        "dickson.primitive_element.self_s": (span("dickson.primitive_element", "self_s"), "s"),
        "dickson.enumerate_subspaces.busy_s": (span("dickson.enumerate_subspaces", "busy_s"), "s"),
        "dickson.dickson_phi.hit_ratio": (
            _ratio(span("dickson.dickson_phi", "calls") - dickson_new_entries,
                   span("dickson.dickson_phi", "calls")), "ratio"),
        "irred.gas_irreducible.busy_s": (span("irred.gas_irreducible", "busy_s"), "s"),
        "irred.bivariate_irreducible_oracle.calls": (span(oracle, "calls"), "count"),
        "irred.bivariate_irreducible_oracle.busy_s": (span(oracle, "busy_s"), "s"),
        "irred.oracle.refused_ratio": (
            _ratio(span(oracle, "errors").get("CapExceededError", 0), span(oracle, "calls")), "ratio"),
    }
    for command in CLI_COMMANDS:
        samples = cli.get("cli." + command, [])
        m[f"cli.{command}.p50_ms"] = (statistics.median(samples) * 1e3 if samples else 0.0, "ms")
    m["exprparse.parse_expression.calls"] = (span("exprparse.parse_expression", "calls"), "count")
    m["exprparse.parse_expression.busy_s"] = (span("exprparse.parse_expression", "busy_s"), "s")
    m["trace.overhead_ratio"] = (_ratio(sum(traced), sum(untraced)), "ratio")
    return m


def _per_call_us(fn, args, reps=5):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        times.append((time.perf_counter() - t0) / len(args))
    return statistics.median(times) * 1e6


# operand degrees of the _ringops micro-benchmarks
RINGOPS_DEGREE = 32
POW_MOD_DEGREE = 16


def micro_benchmarks():
    """Microseconds per operation on fixed seeded operands, tracing off."""
    from aslab import _ringops as rp
    from aslab.fields import make_field

    rng = random.Random("perfbench-micro")
    out = {}

    def nonzero(k):
        while True:
            a = k.random_payload(rng)
            if a != k.zero:
                return a

    for label, spec, count in (("gf3", "GF(3)", 20000), ("gf9", "GF(9)", 5000), ("gf729", "GF(729)", 2000)):
        k = make_field(spec)
        pairs = [(nonzero(k), nonzero(k)) for _ in range(count)]
        out[f"fields.{label}.mul_us"] = _per_call_us(k.mul, pairs)
        if label == "gf729":
            out["fields.gf729.inv_us"] = _per_call_us(k.inv, [(a,) for a, _ in pairs[:500]])
    k = make_field("GF(3)(Z)")
    pairs = [(k.random_payload(rng), k.random_payload(rng)) for _ in range(500)]
    out["fields.gf3z.add_us"] = _per_call_us(k.add, pairs)
    out["fields.gf3z.mul_us"] = _per_call_us(k.mul, pairs)

    d, dm = RINGOPS_DEGREE, POW_MOD_DEGREE
    for label, spec, count in (("gf3", "GF(3)", 40), ("gf9", "GF(9)", 10)):
        k = make_field(spec)

        def poly(deg):
            return tuple(k.random_payload(rng) for _ in range(deg)) + (nonzero(k),)

        out[f"ringops.{label}.mul_us"] = _per_call_us(
            lambda a, b: rp.mul(k, a, b), [(poly(d), poly(d)) for _ in range(count)])
        out[f"ringops.{label}.divmod_us"] = _per_call_us(
            lambda a, b: rp.divmod_(k, a, b), [(poly(2 * d), poly(d)) for _ in range(count)])
        out[f"ringops.{label}.gcd_us"] = _per_call_us(
            lambda a, b: rp.gcd(k, a, b), [(poly(d), poly(d - 1)) for _ in range(count)])
        out[f"ringops.{label}.pow_mod_us"] = _per_call_us(
            lambda a, m: rp.pow_mod(k, a, k.order**8, m),
            [(poly(dm - 1), poly(dm)) for _ in range(max(2, count // 4))], reps=3)
    return {name: (value, "us") for name, value in out.items()}


def acceptance_suites():
    from aslab import acceptance

    out = {}
    ok = True
    for name in acceptance.SUITES:
        t0 = time.perf_counter()
        data = acceptance.suite_json(name, seed=0)
        out[f"acceptance.{name}_s"] = (time.perf_counter() - t0, "s")
        ok = ok and hashlib.sha256(data).hexdigest()[:16] == SUITE_HASHES[name]
    out["acceptance.hashes_ok"] = (1 if ok else 0, "bool")
    return out


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


# ---------------------------------------------------------------------------
# reporting

def check_declared(metrics, traced):
    """Exit without a result if the metrics differ from those BENCHMARK.json declares."""
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        return
    spec = json.loads(spec_file.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if declared != emitted:
        sys.exit(f"error: metrics differ from BENCHMARK.json: {sorted(set(declared.items()) ^ set(emitted.items()))}")


def result_line(checker, metrics):
    return json.dumps({
        "correct": checker.tally["wrong"] == 0,
        "attempted": checker.tally["attempted"],
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def print_report(args, checker, metrics, detail):
    tally = checker.tally
    env = environment()
    print(f"aslab benchmark  workload={args.workload} seed={args.seed} trace={args.trace}  "
          f"python {env['python']}, nproc {env['nproc']}, {env['cpu_model']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    fail_frac = _ratio(checker.failed, tally["attempted"])
    print(f"  {'fail_frac':<52} {fail_frac:>14.6g} ratio  ({checker.failed} of "
          f"{tally['attempted']}: wrong {tally['wrong']}, errored {tally['errored']}, "
          f"refused {tally['refused']})")
    for category, lines in checker.examples.items():
        for line in lines:
            print(f"    {category}: {line}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "fail_frac": fail_frac, **tally, **detail}
    print("report " + json.dumps(report))


# ---------------------------------------------------------------------------
# modes

def run_pass_probe(args, ops, setup_s):
    checker = Checker(load_reference(args.workload))
    setup_scaled = setup_s * CAL_REF_S / calibrate()
    latencies, measured, outcomes = run_pass(ops)
    digests = check_pass(ops, outcomes, checker)
    print(json.dumps({"setup_s": setup_scaled, "setup_measured_s": setup_s,
                      "latencies": latencies, "measured_wall_s": sum(measured),
                      "digests": digests, "tally": checker.tally, "examples": checker.examples,
                      "peak_rss_mb": peak_rss_mb()}))


def run_untraced(args):
    import workloads

    passes = [pass_probe(args.workload, args.seed)
              for _ in range(workloads.pass_count(args.workload, args.seconds))]
    checker = Checker({})
    merge_passes(passes, checker)
    metrics, detail = end_to_end(passes)
    units = dict(END_TO_END)
    metrics = {name: (metrics[name], units[name]) for name, _ in END_TO_END}
    check_declared(metrics, traced=False)
    print_report(args, checker, metrics, detail)
    print(result_line(checker, metrics))


def run_traced(args, ops):
    from aslab import dickson
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    cache_before = len(dickson._dickson_cache)
    try:
        traced, traced_measured, outcomes = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    new_entries = len(dickson._dickson_cache) - cache_before
    checker = Checker(load_reference(args.workload))
    traced_digests = check_pass(ops, outcomes, checker)
    del outcomes
    untraced = pass_probe(args.workload, args.seed)
    merge_passes([{"tally": {}, "examples": {}, "digests": traced_digests}, untraced], checker)
    metrics = per_layer(tracer, traced, untraced["latencies"], new_entries)
    metrics.update(micro_benchmarks())
    metrics["fields.make_field.gf729_cold_ms"] = (cold_make_field_ms(), "ms")
    metrics.update(acceptance_suites())
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "layers": {k: v[1] for k, v in tracer.layers.items()},
    }))
    # busy_s and self_s are measured times: compare them with traced_measured_wall_s
    detail = {"operations": len(ops), "traced_wall_s": sum(traced),
              "traced_measured_wall_s": sum(traced_measured),
              "untraced_wall_s": sum(untraced["latencies"]), "spans": len(tracer.spans),
              "trace_file": str(trace_file.relative_to(ROOT))}
    check_declared(metrics, traced=True)
    print_report(args, checker, metrics, detail)
    print(result_line(checker, metrics))


def run_all(args):
    """Every workload in its own process, one table of the end-to-end metrics."""
    import workloads

    rows = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: {workload} failed: {proc.stderr.strip()[-500:]}")
        print("\n".join(lines[:-1]))
        rows[workload] = json.loads(lines[-1])
    print(json.dumps(rows))


def record_reference():
    """Write reference.json: output digests of one pass at seeds 0 and 1."""
    import workloads

    table = {}
    for workload in workloads.WORKLOADS:
        table[workload] = {}
        for seed in (0, 1):
            ops = workloads.build(workload, seed)
            checker = Checker({})
            _, _, outcomes = run_pass(ops)
            for op, out in zip(ops, check_pass(ops, outcomes, checker)):
                if out is not None:
                    table[workload][op.key] = out
            print(f"{workload} seed {seed}: {len(ops)} ops, {checker.tally}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="ad-prime")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cold-field-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this checkout's code")
    args = parser.parse_args()
    _import_aslab()
    if args.cold_field_probe:
        from aslab.fields import make_field

        t0 = time.perf_counter()
        make_field("GF(729)")
        print(json.dumps({"ms": (time.perf_counter() - t0) * 1e3}))
        return
    if args.record_reference:
        record_reference()
        return
    if args.workload == "all":
        run_all(args)
        return
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if not args.trace and not args.pass_probe:
        run_untraced(args)
        return
    ops = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START
    if args.pass_probe:
        run_pass_probe(args, ops, setup_s)
    else:
        run_traced(args, ops)


if __name__ == "__main__":
    main()
