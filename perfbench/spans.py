"""Span tracing from outside the package, by patching module attributes.

Each wrapper is installed on the module attribute that the caller looks
the function up in, so every call site is covered: ``solver`` and ``cli``
import ``restrict_operator`` by name, ``Subspace.intersect`` finds
``kernel_basis`` in ``hilbert_core``, and the ``make_diagonal`` closure
finds ``graph_base_resolvent`` in ``relations``.

A span is (name, start, end, parent, request).  The scalar resolvent runs
once or more per DR iteration, so it gets no span of its own: its calls
and seconds are added to the enclosing span as ``leaf_calls``/``leaf_s``.
Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

from elliptic_inclusions import cli, hilbert_core, relations, solver
from elliptic_inclusions.errors import ConvergenceError

ROOT = "cli.main"
RESOLVENT = "relations.resolvent"

# (module the caller looks the name up in, attribute, span name)
PATCHES = (
    (solver, "restrict_operator", "hilbert_core.restrict"),
    (cli, "restrict_operator", "hilbert_core.restrict"),
    (solver, "b_star_inverse", "hilbert_core.pullback"),
    (solver, "b_inverse", "hilbert_core.pushforward"),
    (solver, "sobolev_norm", "hilbert_core.norm"),
    (solver, "embedding_constant", "hilbert_core.embedding"),
    (solver, "kernel_basis", "hilbert_core.kernel_basis"),
    (hilbert_core, "kernel_basis", "hilbert_core.kernel_basis"),
    (solver, "projected_inverse", "relations.dr"),
    (relations, "graph_base_resolvent", RESOLVENT),
    (cli, "parse_config", "cli.parse"),
    (cli, "build_operator", "operators.build"),
    (cli, "operator_pair", "operators.build"),
    (cli, "solve", "solver.solve"),
    (cli, "lipschitz_probe", "solver.lipschitz"),
    (cli, "monotonicity_probe", "relations.monotonicity"),
    (cli, "verify_dirichlet_estimate", "solver.estimate"),
    (cli, "verify_neumann_estimate", "solver.estimate"),
    (cli, "emit_report", "cli.emit"),
    (cli.oracle_mod, "active_set_solve", "oracle"),
    (cli.oracle_mod, "linear_direct_solve", "oracle"),
)

# per-layer metric -> the span name it is derived from
COUNTED = {
    "cli.parse_calls": "cli.parse",
    "operators.build_calls": "operators.build",
    "hilbert_core.restrict_calls": "hilbert_core.restrict",
    "hilbert_core.kernel_basis_calls": "hilbert_core.kernel_basis",
    "relations.dr_calls": "relations.dr",
    "solver.solve_calls": "solver.solve",
    "oracle.calls": "oracle",
}
TIMED = {
    "cli.parse_s": "cli.parse",
    "cli.emit_s": "cli.emit",
    "operators.build_s": "operators.build",
    "hilbert_core.restrict_s": "hilbert_core.restrict",
    "hilbert_core.pullback_s": "hilbert_core.pullback",
    "hilbert_core.pushforward_s": "hilbert_core.pushforward",
    "hilbert_core.norm_s": "hilbert_core.norm",
    "hilbert_core.embedding_s": "hilbert_core.embedding",
    "hilbert_core.kernel_basis_s": "hilbert_core.kernel_basis",
    "relations.dr_s": "relations.dr",
    "relations.monotonicity_s": "relations.monotonicity",
    "solver.solve_s": "solver.solve",
    "solver.lipschitz_s": "solver.lipschitz",
    "solver.estimate_s": "solver.estimate",
    "oracle.s": "oracle",
}
SELF = {  # self time: duration minus the child spans and leaf calls inside
    "cli.self_s": ROOT,
    "solver.self_s": "solver.solve",
}
COUNTERS = {  # recorded by the wrappers themselves
    "relations.resolvent_calls": "count",
    "relations.resolvent_s": "s",
    "hilbert_core.restrict_distinct": "count",
    "hilbert_core.restrict_bytes_computed": "bytes",
    "relations.dr_iterations": "count",
    "relations.dr_s_per_iter": "s",
    "relations.dr_failed": "count",
}


def metric_units():
    units = {m: "count" for m in COUNTED}
    units.update({m: "s" for m in TIMED})
    units.update({m: "s" for m in SELF})
    units.update(COUNTERS)
    return units


class Tracer:
    """Records spans and per-request counters while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, request, leaf_calls, leaf_s]
        self._counters = defaultdict(lambda: defaultdict(float))
        self._restricted = defaultdict(set)  # request -> operator digests
        self._digests = {}  # id(matrix) -> (matrix, digest), this request only
        self._first_span = {}  # request -> index of its root span
        self._stack = []
        self.request = -1

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.request, 0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ConvergenceError:
                if name == "relations.dr":
                    self._counters[self.request]["relations.dr_failed"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if name == "hilbert_core.restrict":
                self._on_restrict(result)
            elif name == "relations.dr":
                self._counters[self.request]["relations.dr_iterations"] += \
                    result.iterations
            return result

        return wrapper

    def _leaf(self, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                parent = self.spans[self._stack[-1]]
                parent[5] += 1
                parent[6] += time.perf_counter() - start

        return wrapper

    def _on_restrict(self, result):
        a = result.full_map.matrix
        m, n = a.shape
        self._counters[self.request]["hilbert_core.restrict_bytes_computed"] += \
            8 * (m * m + n * n + m * n)
        # Callers pass the same read-only matrix to many restrictions, so it
        # is hashed once per request; holding it keeps its id from reuse.
        if id(a) not in self._digests:
            digest = hashlib.blake2b(a.tobytes(), digest_size=16).digest()
            self._digests[id(a)] = (a, (a.shape, digest))
        self._restricted[self.request].add(self._digests[id(a)][1])

    @contextmanager
    def installed(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
        try:
            for (mod, attr, name), (_, _, fn) in zip(PATCHES, originals):
                setattr(mod, attr,
                        self._leaf(fn) if name == RESOLVENT else self._span(name, fn))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def call(self, request, fn, *args):
        """Run ``fn(*args)`` as the root span of request ``request``."""
        self.request = request
        self._digests.clear()
        self._first_span[request] = len(self.spans)
        return self._span(ROOT, fn)(*args)

    def request_metrics(self, request):
        """Per-layer metrics of one request, derived from its spans."""
        first = self._first_span[request]
        mine = [(i, s) for i, s in enumerate(self.spans[first:], first)
                if s[4] == request]
        count = defaultdict(int)
        total = defaultdict(float)
        covered = defaultdict(float)  # span index -> time inside its children
        leaf_calls = leaf_s = 0.0
        for i, (name, start, end, parent, _, lcalls, ls) in mine:
            count[name] += 1
            total[name] += end - start
            covered[i] += ls
            leaf_calls += lcalls
            leaf_s += ls
            if parent >= 0:
                covered[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, *_rest) in mine:
            self_time[name] += end - start - covered[i]
        out = {m: float(count[s]) for m, s in COUNTED.items()}
        out.update({m: total[s] for m, s in TIMED.items()})
        out.update({m: self_time[s] for m, s in SELF.items()})
        c = self._counters[request]
        iters = c["relations.dr_iterations"]
        out.update({
            "relations.resolvent_calls": leaf_calls,
            "relations.resolvent_s": leaf_s,
            "hilbert_core.restrict_distinct": float(len(self._restricted[request])),
            "hilbert_core.restrict_bytes_computed":
                c["hilbert_core.restrict_bytes_computed"],
            "relations.dr_iterations": iters,
            "relations.dr_s_per_iter": out["relations.dr_s"] / iters if iters else 0.0,
            "relations.dr_failed": c["relations.dr_failed"],
        })
        return out

    def write(self, path):
        """Dump every span as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "request", "leaf_calls", "leaf_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
