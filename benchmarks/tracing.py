"""Span tracer for the traced benchmark run.

The tracer rebinds the public functions of ``rootsys``, ``formal``, ``weyl``,
``demazure``, ``polysum`` and ``cli`` with wrappers defined here, so no file
of the library changes.  Every binding of a wrapped function is replaced,
including the names other modules took with ``from ... import`` (such as
``polychar.cli.polytope_sum_oracle`` or ``polychar.polysum.orbit``), so no
call escapes the trace.  ``restore`` puts the originals back.

Coarse calls get a span: name, start, end, parent span and request index,
kept in memory and written out when the benchmark ends.  Very hot functions
(inner products, dominance folding, matrix application, sum addition,
membership tests) get a call count only, so their time lands in the self time
of the span that called them.  A span's self time is its duration minus the
part of it its child spans cover.
"""

import json
import sys
import time
from collections import defaultdict

PACKAGE = "polychar"


def _result_size(_args, result):
    return len(result)


# (module, attribute, span name, (count name, size of one call) or None).
# ``terms_out`` also keeps the largest single result as ``peak_terms``.
SPANS = (
    ("cli", "run", "cli.run", None),
    ("rootsys", "build_root_system", "rootsys.build_root_system", None),
    ("weyl", "weyl_group", "weyl.weyl_group", None),
    ("weyl", "orbit", "weyl.orbit", ("points", _result_size)),
    ("formal", "evaluate", "formal.evaluate", ("terms", lambda args, _result: len(args[1]))),
    ("demazure", "character_demazure", "demazure.character_demazure", None),
    *(
        ("demazure", op, "demazure.op", ("terms_out", _result_size))
        for op in (
            "apply_D_simple", "apply_d_simple", "apply_D_root",
            "apply_d_root", "apply_r_simple", "apply_r_root",
        )
    ),
    ("polysum", "polytope_sum_oracle", "polysum.oracle",
     ("points", lambda _args, result: len(result.sum))),
    ("polysum", "polytope_sum_demazure", "polysum.formula", None),
    ("polysum", "dominant_weights_below", "polysum.dominant_below", ("weights", _result_size)),
    ("polysum", "dominant_weight_multiplicities", "polysum.freudenthal", None),
    ("polysum", "polytope_expansion", "polysum.expansion", None),
    ("polysum", "brion_eval", "polysum.brion_eval", None),
    ("polysum", "weyl_character_eval", "polysum.weyl_char_eval", None),
    ("polysum", "sample_generic_sigmas", "polysum.sample_sigmas", None),
    ("polysum", "numeric_formula_check", "polysum.numeric_check", None),
    ("polysum", "verify_polytope_formula", "polysum.verify", None),
)

# (module, attribute or "Class.method", counter name): counted, not timed.
COUNTERS = (
    ("rootsys", "RootSystem.inner", "rootsys.inner"),
    ("rootsys", "RootSystem.inner_float", "rootsys.inner_float"),
    ("rootsys", "RootSystem.root_coords_of_weight", "rootsys.root_coords_of_weight"),
    ("rootsys", "RootSystem.coroot_labels", "rootsys.coroot_labels"),
    ("weyl", "dominant_representative", "weyl.dominant_representative"),
    ("weyl", "WeylElement.apply", "weyl.element_apply"),
    ("formal", "FormalSum.add", "formal.add"),
    ("polysum", "polytope_member", "polysum.member"),
)

# Per-layer metrics of one traced pass: (name, unit, better).
PER_LAYER = (
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("rootsys.build_root_system.calls", "count", "lower"),
    ("rootsys.build_root_system.total_s", "s", "lower"),
    ("rootsys.inner.calls", "count", "lower"),
    ("rootsys.inner_float.calls", "count", "lower"),
    ("rootsys.root_coords_of_weight.calls", "count", "lower"),
    ("rootsys.coroot_labels.calls", "count", "lower"),
    ("weyl.weyl_group.calls", "count", "lower"),
    ("weyl.weyl_group.hit_ratio", "ratio", "higher"),
    ("weyl.orbit.calls", "count", "lower"),
    ("weyl.orbit.self_s", "s", "lower"),
    ("weyl.orbit.points", "count", "lower"),
    ("weyl.dominant_representative.calls", "count", "lower"),
    ("weyl.element_apply.calls", "count", "lower"),
    ("formal.evaluate.calls", "count", "lower"),
    ("formal.evaluate.self_s", "s", "lower"),
    ("formal.evaluate.terms", "count", "lower"),
    ("formal.add.calls", "count", "lower"),
    ("demazure.character_demazure.calls", "count", "lower"),
    ("demazure.character_demazure.self_s", "s", "lower"),
    ("demazure.op.calls", "count", "lower"),
    ("demazure.op.self_s", "s", "lower"),
    ("demazure.op.terms_out", "count", "lower"),
    ("demazure.op.peak_terms", "count", "lower"),
    ("polysum.oracle.calls", "count", "lower"),
    ("polysum.oracle.self_s", "s", "lower"),
    ("polysum.oracle.points", "count", "lower"),
    ("polysum.member.calls", "count", "lower"),
    ("polysum.oracle.yield", "ratio", "higher"),
    ("polysum.formula.calls", "count", "lower"),
    ("polysum.formula.self_s", "s", "lower"),
    ("polysum.dominant_below.calls", "count", "lower"),
    ("polysum.dominant_below.self_s", "s", "lower"),
    ("polysum.dominant_below.weights", "count", "lower"),
    ("polysum.freudenthal.calls", "count", "lower"),
    ("polysum.freudenthal.self_s", "s", "lower"),
    ("polysum.expansion.calls", "count", "lower"),
    ("polysum.expansion.self_s", "s", "lower"),
    ("polysum.brion_eval.calls", "count", "lower"),
    ("polysum.brion_eval.self_s", "s", "lower"),
    ("polysum.weyl_char_eval.calls", "count", "lower"),
    ("polysum.weyl_char_eval.self_s", "s", "lower"),
    ("polysum.sample_sigmas.self_s", "s", "lower"),
    ("polysum.numeric_check.self_s", "s", "lower"),
    ("polysum.verify.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """Spans and counts of one traced pass, held in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [span id, parent id, name, start, end, request]
        self.counts = defaultdict(int)
        self.request = None
        self._stack = []

    def span(self, name, fn, extra=None):
        clock, spans, stack, counts = self.clock, self.spans, self._stack, self.counts
        if extra is not None:
            extra_key = f"{name}.{extra[0]}"
            size = extra[1]
            peak_key = f"{name}.peak_terms" if extra[0] == "terms_out" else None

        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, name, clock(), None, self.request]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if extra is not None:
                n = size(args, result)
                counts[extra_key] += n
                if peak_key is not None and n > counts[peak_key]:
                    counts[peak_key] = n
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(modules, original, wrapper, undo) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, value))
                setattr(mod, key, wrapper)


def install(tracer) -> list:
    """Rebind every wrapped function and method; returns the undo list.

    A listed module, function or method the library lacks raises, after
    everything already rebound is put back, so a renamed layer fails the
    traced run instead of reading 0.
    """
    modules = [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]
    undo = []
    try:
        for module, attr, name, extra in SPANS:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            _rebind(modules, original, tracer.span(name, original, extra), undo)
        for module, path, name in COUNTERS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            cls_name, _, attr = path.rpartition(".")
            if not cls_name:
                original = getattr(owner, attr)
                _rebind(modules, original, tracer.counter(name, original), undo)
                continue
            cls = getattr(owner, cls_name)
            if attr not in vars(cls):
                raise AttributeError(f"{PACKAGE}.{module}.{path} is not defined")
            original = vars(cls)[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, tracer.counter(name, original))
    except BaseException:
        restore(undo)
        raise
    return undo


def restore(undo) -> None:
    for owner, key, value in reversed(undo):
        setattr(owner, key, value)


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for _sid, parent, _name, start, end, _req in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _req in spans:
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out[sid] = (end - start) - covered
    return out


def span_stats(spans) -> dict:
    """Span name -> [calls, total seconds, self seconds]."""
    own = self_times(spans)
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, _parent, name, start, end, _req in spans:
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own[sid]
    return stats


def layer_metrics(tracer, extras: dict) -> dict:
    """Values of the PER_LAYER metrics for one traced pass.

    ``extras`` supplies what the spans cannot: ``cli.stdout_bytes`` and
    ``weyl.weyl_group.hit_ratio``.  ``trace.overhead_frac`` compares traced
    with untraced passes, so the caller adds it.
    """
    stats = span_stats(tracer.spans)
    counts = tracer.counts
    member_calls = counts["polysum.member.calls"]
    derived = dict(extras)
    derived["polysum.oracle.yield"] = (
        counts["polysum.oracle.points"] / member_calls if member_calls else 0.0
    )
    out = {}
    for name, _unit, _better in PER_LAYER:
        if name == "trace.overhead_frac":
            continue
        base, _, field = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif base in stats and field in ("calls", "total_s", "self_s"):
            value = stats[base][("calls", "total_s", "self_s").index(field)]
        else:
            value = counts[name]
        out[name] = value
    return out


def write_spans(path, tracers) -> None:
    """One JSON array per span: traced pass, span id, parent id, name,
    start, end (perf_counter seconds) and request index."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for pass_index, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps([pass_index, *span], separators=(",", ":")) + "\n")
