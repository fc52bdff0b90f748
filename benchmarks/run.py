"""polychar benchmark: one seeded workload sent to ``polychar.cli.run``.

    python3 benchmarks/run.py --workload char-expand --seed 3 --seconds 15 --trace 0

Run from the root of a checkout; ``polychar`` is imported from its ``src/``.
The load is a closed loop: one client in one thread sends each request only
after the last one returned.  A pass sends the workload's whole request list
once, starting from a cold Weyl-group cache.  A run makes passes until the
next one would end past ``--seconds`` or it has made ``MAX_PASSES``, and at
least ``MIN_PASSES``; each request's latency is its fastest over those
passes.  One set-up sample, in a fresh interpreter, goes before every pass,
so set-up and latencies are sampled over the same stretch of time.  Timing
metrics are scaled to a reference host speed (see ``reference``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (median over traced passes), plus the tracing overhead; its spans are
written to ``.bench_out/``.

Every output is checked in one more, untimed pass (see ``checks.py``), and
every pass must reproduce the first pass's canonical stdout byte for byte.  The
last stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# End-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# A run's passes: at least MIN_PASSES, at most MAX_PASSES, and no more than
# fit in --seconds.  The seed commit reaches the cap in most runs, so a
# faster commit gets no more repeats than the reference; a slower one gets
# fewer, which can only make it look slower.
MIN_PASSES = 3
MAX_PASSES = 16
SETUP_SAMPLES = 11  # at least; one more per pass beyond that
SPAN_DIR = ROOT / ".bench_out"
# The 10th percentile of ``reference`` times on the baseline machine at its
# fastest (README).
REFERENCE_S = 0.00031

# Timed in a fresh interpreter: what every CLI invocation pays before work.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import polychar.cli
from polychar.rootsys import build_root_system
from polychar.weyl import weyl_group
for name in sys.argv[2:]:
    weyl_group(build_root_system(name))
print(repr(time.perf_counter() - t0))
"""


def setup_sample(algebras) -> float:
    """Seconds for cold import plus root-system and Weyl-group builds, in a
    fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC), *algebras],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def reference() -> None:
    """A fixed stdlib computation, timed before every request of a pass.

    It is the program's mix of work (Fraction sums, tuple-keyed dict
    updates, an integer loop) without the program.  A shared host slows
    both it and the program, in stretches that can outlast a run, so the
    10th percentile of its times in a run says how fast the host ran during
    that run.  (Its minimum says less: a sub-millisecond call can land in a
    moment too short for a request.)  Every timing metric is scaled by
    ``REFERENCE_S`` / that percentile, so it reads as on the baseline
    machine running at full speed.  A change to the program does not touch
    the reference, so it shows in full.
    """
    acc = Fraction(0)
    counts = {}
    for i in range(1, 40):
        acc += Fraction(i, i + 3)
        key = (i % 7, i % 5)
        counts[key] = counts.get(key, 0) + i
    total = 0
    for i in range(3000):
        total += i * i % 7


def execute(run, argv) -> tuple:
    """(latency seconds, exit code or None, stdout, exception or None)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    except Exception as exc:  # a raising request is a failed request, not a crash
        return time.perf_counter() - t0, None, out.getvalue(), exc
    return time.perf_counter() - t0, code, out.getvalue(), None


def _digest(argv, code, stdout, exc):
    """(exit code, hash of canonical stdout), or None for a request that raised."""
    if exc is not None:
        return None
    try:
        text = checks.canonical(argv, stdout)
    except ValueError:  # not JSON: compare the raw bytes
        text = stdout
    return code, hashlib.sha256(text.encode()).hexdigest()


class Ledger:
    """Digests of every request sent; the first pass is the reference.

    Only digests are kept, so stored outputs do not count towards the peak
    RSS.  A request instance fails when it raised, when the check pass finds
    that request's output wrong, or when its exit code or canonical stdout
    differs from the first pass's.
    """

    def __init__(self, requests):
        self.requests = requests
        self.passes = []  # per pass, one digest per request

    def record(self, digests) -> None:
        self.passes.append(digests)

    @property
    def attempted(self) -> int:
        return len(self.passes) * len(self.requests)

    def check(self, lib) -> dict:
        """Send the list once more, untimed, and check every output.

        The check pass counts as a pass; returns request index -> reason for
        the outputs that fail.
        """
        lib.weyl_group.cache_clear()
        digests, bad = [], {}
        for index, argv in enumerate(self.requests):
            _lat, code, stdout, exc = execute(lib.cli.run, argv)
            digests.append(_digest(argv, code, stdout, exc))
            if exc is not None:
                bad[index] = f"raised {type(exc).__name__}: {exc}"
            else:
                reason = checks.check(lib, argv, code, stdout)
                if reason is not None:
                    bad[index] = reason
        self.record(digests)
        return bad

    def drifted(self) -> int:
        """Outputs that differ from the first pass's."""
        ref = self.passes[0]
        return sum(
            1 for digests in self.passes for d, r in zip(digests, ref) if d is not None and d != r
        )

    def failed(self, bad) -> int:
        ref = self.passes[0]
        return sum(
            1
            for digests in self.passes
            for index, (d, r) in enumerate(zip(digests, ref))
            if d is None or index in bad or d != r
        )


def _load_library():
    if not (SRC / "polychar" / "cli.py").is_file():
        raise ImportError(f"no polychar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polychar.cli
    import polychar.demazure
    import polychar.polysum
    import polychar.rootsys
    import polychar.weyl

    return SimpleNamespace(
        cli=polychar.cli,
        weyl_group=polychar.weyl.weyl_group,
        build_root_system=polychar.rootsys.build_root_system,
        character_freudenthal=polychar.polysum.character_freudenthal,
        weyl_dimension=polychar.polysum.weyl_dimension,
        character_demazure=polychar.demazure.character_demazure,
    )


def run_pass(lib, requests, tracer=None) -> tuple:
    """Send the request list once, timing ``reference`` before each request;
    (wall seconds, latencies, digests, stdout bytes, reference seconds)."""
    lib.weyl_group.cache_clear()
    latencies, digests, stdout_bytes, refs = [], [], 0, []
    run = lib.cli.run
    t0 = time.perf_counter()
    for index, argv in enumerate(requests):
        if tracer is not None:
            tracer.request = index
        r0 = time.perf_counter()
        reference()
        refs.append(time.perf_counter() - r0)
        latency, code, stdout, exc = execute(run, argv)
        latencies.append(latency)
        digests.append(_digest(argv, code, stdout, exc))
        stdout_bytes += len(stdout.encode())
    wall = time.perf_counter() - t0
    return wall, latencies, digests, stdout_bytes, refs


def _best_latencies(best, latencies) -> list:
    return latencies if best is None else [min(a, b) for a, b in zip(best, latencies)]


def measure(lib, requests, seconds) -> tuple:
    """End-to-end metrics; returns (metrics, ledger, passes, scale), where
    ``scale`` is the factor the timing metrics were multiplied by."""
    algebras = workloads.algebras(requests)
    setup_sample(algebras)  # discarded: leaves the bytecode caches behind
    ledger = Ledger(requests)
    setup, rounds, best, refs = [], [], None, []
    start = time.perf_counter()
    while len(rounds) < MIN_PASSES or (
        len(rounds) < MAX_PASSES
        and time.perf_counter() - start + max(rounds[-MIN_PASSES:]) <= seconds
    ):
        t0 = time.perf_counter()
        setup.append(setup_sample(algebras))
        _wall, latencies, digests, _, pass_refs = run_pass(lib, requests)
        rounds.append(time.perf_counter() - t0)
        best = _best_latencies(best, latencies)
        refs.extend(pass_refs)
        ledger.record(digests)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(algebras))
    scale = REFERENCE_S / statistics.quantiles(refs, n=10)[0]
    metrics = {
        "setup_s": statistics.median(setup) * scale,
        "wall_s": sum(best) * scale,
        "request_p50_ms": statistics.median(best) * 1000.0 * scale,
        "request_p90_ms": statistics.quantiles(best, n=10)[8] * 1000.0 * scale,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, ledger, len(rounds), scale


def measure_traced(lib, requests, seconds) -> tuple:
    """Per-layer metrics; returns (metrics, ledger, tracers)."""
    ledger = Ledger(requests)
    plain, traced, tracers, per_pass = None, None, [], []
    elapsed = 0.0
    while not tracers or elapsed + elapsed / len(tracers) <= seconds:
        wall, latencies, digests, _, _ = run_pass(lib, requests)
        elapsed += wall
        plain = _best_latencies(plain, latencies)
        ledger.record(digests)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            wall, latencies, digests, stdout_bytes, _ = run_pass(lib, requests, tracer)
        finally:
            tracing.restore(undo)
        info = lib.weyl_group.cache_info()  # run_pass cleared the cache and its counts
        elapsed += wall
        traced = _best_latencies(traced, latencies)
        tracers.append(tracer)
        ledger.record(digests)
        per_pass.append(tracing.layer_metrics(tracer, {
            "cli.stdout_bytes": stdout_bytes,
            "weyl.weyl_group.hit_ratio": info.hits / (info.hits + info.misses)
            if info.hits + info.misses else 0.0,
        }))
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    return metrics, ledger, tracers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    requests = workloads.generate(args.workload, args.seed)
    try:
        lib = _load_library()
    except ImportError as exc:
        print(f"error: cannot import polychar: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, ledger, tracers = measure_traced(lib, requests, args.seconds)
        units = {name: unit for name, unit, _better in tracing.PER_LAYER}
        span_file = SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracing.write_spans(span_file, tracers)
        note = f"{len(tracers)} traced passes; spans in {span_file.relative_to(ROOT)}"
    else:
        metrics, ledger, passes, scale = measure(lib, requests, args.seconds)
        units = dict(END_TO_END)
        note = (
            f"{passes} passes; {len(requests)} latency samples, each the best of {passes}; "
            f"times scaled by {scale:.4f} to the reference host speed"
        )

    bad = ledger.check(lib)
    failed = ledger.failed(bad)
    drifted = ledger.drifted()
    error_rate = failed / ledger.attempted
    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests per pass, {note}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(f"  {'error_rate':40s} {error_rate:.6g} ratio ({failed} of {ledger.attempted})")
    for index, reason in sorted(bad.items()):
        print(f"  FAILED {' '.join(requests[index])}: {reason}")
    if drifted:
        print(f"  FAILED {drifted} outputs differ from the first pass")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
