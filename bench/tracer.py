"""Span tracing from outside the package, and the per-layer metrics.

The tracer replaces a function where its consumer module binds it (for
example ``stealthgame.dynamics.best_response``) with a wrapper that
records one span per call: id, name, start, end, parent id and an
optional info value taken from the arguments and result.  Spans stay in
memory until the run ends.  ``restore`` puts every original object back,
so untraced measurements never run through a wrapper.

Span names are ``<defining module>.<function>``, so a function bound in
several consumers aggregates under one name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time

from stealthgame.dynamics import DEFAULT_TOL

# Functions the benchmark itself calls through the package namespace
# while building its inputs.
SETUP_BINDINGS = [
    ("stealthgame", "parse_network", "grid.parse_network"),
    ("stealthgame", "build_dc_jacobian", "grid.build_dc_jacobian"),
    ("stealthgame", "build_model", "model.build_model"),
]

# (consumer module, attribute, span name) for everything an operation runs.
OP_BINDINGS = [
    ("stealthgame", "run_brd", "dynamics.run_brd"),
    ("stealthgame", "llr_samples", "detection.llr_samples"),
    ("stealthgame", "error_curve", "detection.error_curve"),
    ("stealthgame", "roc_auc", "detection.roc_auc"),
    ("stealthgame.dynamics", "best_response", "bestresponse.best_response"),
    ("stealthgame.dynamics", "verify_ne", "dynamics.verify_ne"),
    ("stealthgame.dynamics", "potential", "games.potential"),
    ("stealthgame.dynamics", "mi_global", "metrics.mi_global"),
    ("stealthgame.dynamics", "kl_global", "metrics.kl_global"),
    ("stealthgame.bestresponse", "br_context", "bestresponse.br_context"),
    ("stealthgame.bestresponse", "br_g1", "bestresponse.br_g1"),
    ("stealthgame.bestresponse", "br_g2", "bestresponse.br_g2"),
    ("stealthgame.bestresponse", "br_g3", "bestresponse.br_g3"),
    ("stealthgame.games", "mi_global", "metrics.mi_global"),
    ("stealthgame.games", "kl_global", "metrics.kl_global"),
    ("stealthgame.games", "mi_local", "metrics.mi_local"),
    ("stealthgame.games", "kl_local", "metrics.kl_local"),
    ("stealthgame.metrics", "attacked_cov", "model.attacked_cov"),
    ("stealthgame.detection", "attacked_cov", "model.attacked_cov"),
    ("stealthgame.detection", "sample_observations", "detection.sample_observations"),
    ("stealthgame.detection", "llr_joint", "detection.llr_joint"),
    ("stealthgame.detection", "llr_samples", "detection.llr_samples"),
]

# What the CLI module binds, traced by the launcher around cli.main.
CLI_BINDINGS = [
    ("stealthgame.cli", "parse_network", "grid.parse_network"),
    ("stealthgame.cli", "build_dc_jacobian", "grid.build_dc_jacobian"),
    ("stealthgame.cli", "build_model", "model.build_model"),
    ("stealthgame.cli", "run_brd", "dynamics.run_brd"),
] + [b for b in OP_BINDINGS if b[0] != "stealthgame"]

CLI_COMMANDS = ("run", "sweep")

_TIMED = [
    "bestresponse.br_context", "bestresponse.br_g1", "bestresponse.br_g2",
    "bestresponse.br_g3", "bestresponse.best_response",
    "dynamics.verify_ne", "games.potential",
    "metrics.mi_global", "metrics.kl_global", "metrics.mi_local", "metrics.kl_local",
    "model.build_model", "grid.parse_network", "grid.build_dc_jacobian",
    "detection.llr_samples", "detection.sample_observations", "detection.llr_joint",
    "detection.error_curve", "detection.roc_auc",
]

# Every per-layer metric as (name, unit, better), in BENCHMARK.json order.
PER_LAYER = (
    [(f"{n}.{k}", "count" if k == "calls" else "s", "lower")
     for n in _TIMED for k in ("calls", "total_s", "self_s")]
    + [(f"dynamics.run_brd.g{g}.{k}", "count" if k == "calls" else "s", "lower")
       for g in (1, 2, 3) for k in ("calls", "total_s", "self_s")]
    + [
        ("bestresponse.moved_share", "share", "higher"),
        ("dynamics.record_s", "s", "lower"),
        ("dynamics.rounds", "count", "lower"),
        ("model.attacked_cov.calls", "count", "lower"),
        ("model.attacked_cov.total_s", "s", "lower"),
        ("detection.samples_drawn_per_used", "share", "lower"),
        ("cli.interpreter_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
    ]
    + [(f"cli.{c}.wall_s", "s", "lower") for c in CLI_COMMANDS]
    + [(f"cli.main.{c}.self_s", "s", "lower") for c in CLI_COMMANDS]
    + [(f"cli.output_bytes.{c}", "bytes", "lower") for c in CLI_COMMANDS]
    + [
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "share", "lower"),
    ]
)


def _moved(args, kwargs, result):
    # best_response(spec, model, i, v): v[i] still holds the old value.
    # Every workload solves at run_brd's default tolerance.
    _, _, i, v = args[:4]
    return bool(abs(result - v[i]) >= DEFAULT_TOL)


def _run_info(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return (spec.game, result[2].rounds_used)


def _n_samples(args, kwargs, result):
    return int(args[2] if len(args) > 2 else kwargs["n_samples"])


INFO = {
    "bestresponse.best_response": _moved,
    "dynamics.run_brd": _run_info,
    "detection.sample_observations": _n_samples,
}


class Tracer:
    """Records spans from wrapped functions; a context manager that restores."""

    def __init__(self):
        self.spans = []
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        info = INFO.get(name)
        spans = self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            # A span opened on a pool thread has no parent on its own
            # stack; it belongs to the root span that started the pool.
            parent = stack[-1] if stack else self.root
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = [sid, name, start, end, parent, None]
                spans.append(span)
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self, bindings) -> "Tracer":
        for module, attr, name in bindings:
            self.wrap(importlib.import_module(module), attr, name)
        return self

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root_span(self, name: str):
        sid = next(self._ids)
        self.root = sid
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append([sid, name, start, time.perf_counter(), None, None])
            self.root = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _covered(lo: float, hi: float, intervals: list) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """(span, duration, self time) for every span.

    Self time is the duration minus the part of it that the span's
    children cover.
    """
    children = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    return [(s, s[3] - s[2], s[3] - s[2] - _covered(s[2], s[3], children.get(s[0], [])))
            for s in spans]


def _table(rows) -> dict:
    table = {}
    for s, dur, self_s in rows:
        row = table.setdefault(s[1], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += self_s
    return table


def layer_metrics(spans, n_ops: int, samples_used: int) -> dict:
    """Per-operation per-layer figures from the spans of ``n_ops`` operations.

    ``samples_used`` is the number of samples the operations need, two
    hypotheses times the sample count per detection; the ratio of drawn
    to used samples shows redrawing.
    """
    rows = self_times(spans)
    table = _table(rows)
    out = {}
    for name in _TIMED:
        calls, total, self_s = table.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls / n_ops
        out[f"{name}.total_s"] = total / n_ops
        out[f"{name}.self_s"] = self_s / n_ops
    calls, total, _ = table.get("model.attacked_cov", (0, 0.0, 0.0))
    out["model.attacked_cov.calls"] = calls / n_ops
    out["model.attacked_cov.total_s"] = total / n_ops

    runs = [r for r in rows if r[0][1] == "dynamics.run_brd"]
    for g in (1, 2, 3):
        calls, total, self_s = _table([r for r in runs if r[0][5][0] == g]).get(
            "dynamics.run_brd", (0, 0.0, 0.0))
        out[f"dynamics.run_brd.g{g}.calls"] = calls / n_ops
        out[f"dynamics.run_brd.g{g}.total_s"] = total / n_ops
        out[f"dynamics.run_brd.g{g}.self_s"] = self_s / n_ops
    out["dynamics.rounds"] = sum(r[0][5][1] for r in runs) / n_ops
    run_ids = {r[0][0] for r in runs}
    out["dynamics.record_s"] = sum(
        dur for s, dur, _ in rows
        if s[4] in run_ids
        and s[1] in ("games.potential", "metrics.mi_global", "metrics.kl_global")) / n_ops

    moves = [s[5] for s in spans if s[1] == "bestresponse.best_response"]
    out["bestresponse.moved_share"] = sum(moves) / len(moves) if moves else 0.0
    drawn = sum(s[5] for s in spans if s[1] == "detection.sample_observations")
    out["detection.samples_drawn_per_used"] = drawn / samples_used if samples_used else 0.0
    return out
