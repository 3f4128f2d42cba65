"""Layer spans for the traced benchmark run.

The tracer wraps the public functions of snoidal's five modules (plus the
few private entry points the command line goes through) by patching module
attributes, so nothing under ``src/snoidal`` changes.  Every wrapped call
becomes a node with a name, start, end, parent node and op id.  Functions
called thousands of times per op (the elliptic functions and
``waves.profile_eval``) share one aggregate node per (parent, name) that
counts calls and sums time, which keeps the span list small.  numpy's FFTs
and dense symmetric eigensolvers are counted, not timed: their time stays in
the snoidal function that called them.

A node's self time is its duration minus the time of its child nodes, and a
layer's self time is the sum over its nodes, so the layers partition each op.

Every function a layer metric is built from must exist where the tracer
expects it: `install` raises if one is missing, so that a rename fails the
traced run instead of turning its metrics into zeros.
"""

from __future__ import annotations

import functools
import json
import time

LAYERS = ("elliptic", "waves", "spectral", "evolution", "cli")

# Called per grid point: one aggregate node per parent instead of one span
# per call.
AGGREGATED = {"jacobi_sn_cn_dn", "complete_K", "complete_E", "profile_eval"}

# Short names for the layer metrics; anything else keeps its function name.
RENAMES = {
    "jacobi_sn_cn_dn": "sn",
    "complete_K": "K",
    "complete_E": "E",
    "d_second_derivative": "d2",
    "coercivity_constant": "coercivity",
    "constrain_zero_mean": "constrain",
}

# Public functions the layer metrics are built from; each must be in its
# module's __all__.  The rest of __all__ is wrapped too, for the self times.
REQUIRED = {
    "elliptic": ("jacobi_sn_cn_dn", "complete_K"),
    "waves": ("solve_modulus", "profile_eval", "sample_wave", "ode_residual"),
    "spectral": ("assemble_L1", "assemble_Lblock", "constrain_zero_mean", "eigen_report",
                 "D_matrix", "D1_numeric", "d_second_derivative", "coercivity_constant",
                 "full_report"),
    "evolution": ("conserved", "run_experiment"),
}

# Private entry points the command line reaches that __all__ does not list,
# with their span names.
PRIVATE = {
    "evolution": {"SplitStepper.advance": "advance",
                  "_OrbitDistance.__call__": "orbit_distance_sample"},
    "cli": {"_write_csv": "write", "_write_json": "write", "_run_sweep_job": "sweep_job"},
}

# Flop counts of LAPACK's symmetric eigensolvers (Golub & Van Loan, 4th ed.,
# sec. 8.3): values only ~ 4n^3/3, values and vectors ~ 9n^3.  Computed, not
# measured.
EIGEN_FLOP_FACTOR = {"eigvalsh": 4.0 / 3.0, "eigh": 9.0}
FFT_NAMES = ("fft", "ifft", "rfft", "irfft")


class Node:
    """One span, or one aggregate of calls sharing a parent and a name."""

    __slots__ = ("id", "name", "parent", "op", "start", "end", "calls",
                 "total", "child", "counts", "aggs")

    def __init__(self, node_id, name, parent, op):
        self.id = node_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0
        self.end = 0
        self.calls = 0
        self.total = 0
        self.child = 0
        self.counts = {}
        self.aggs = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_ns(self) -> int:
        return self.total - self.child

    def as_record(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": None if self.parent is None else self.parent.id,
            "op": self.op,
            "start_ns": self.start,
            "end_ns": self.end,
            "calls": self.calls,
            "total_ns": self.total,
            "self_ns": self.self_ns,
            "counts": self.counts,
        }


class Tracer:
    """Span recorder; `install` patches snoidal and numpy, `uninstall` restores."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.stack: list[Node] = []
        self.op: int | None = None
        self.root = Node(-1, "harness", None, None)  # holds aggregates called outside any span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _new(self, name: str, parent: Node | None) -> Node:
        node = Node(len(self.nodes), name, parent, self.op)
        self.nodes.append(node)
        return node

    def open(self, name: str) -> Node:
        """Open a span by hand (the harness wraps each op in one)."""
        node = self._new(name, self.stack[-1] if self.stack else None)
        node.calls = 1
        self.stack.append(node)
        node.start = time.perf_counter_ns()
        return node

    def close(self, node: Node) -> None:
        node.end = time.perf_counter_ns()
        node.total = node.end - node.start
        popped = self.stack.pop()
        if popped is not node:
            raise RuntimeError(f"span {node.name} closed out of order")
        if node.parent is not None:
            node.parent.child += node.total

    def _span(self, name, fn, key=None, counts=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            node = tracer.open(name if key is None else key(name, args, kwargs))
            if counts is not None:
                node.counts.update(counts(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(node)
        return wrapper

    def _aggregate(self, name, fn):
        tracer = self
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            owner = parent if parent is not None else tracer.root
            if owner.aggs is None:
                owner.aggs = {}
            aggs = owner.aggs
            node = aggs.get(name)
            if node is None:
                node = aggs[name] = tracer._new(name, parent)
                node.start = clock()
            node.calls += 1
            stack.append(node)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                node.total += t1 - t0
                node.end = t1
                if parent is not None:
                    parent.child += t1 - t0
        return wrapper

    def _counter(self, name, fn, flops=None):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                counts = stack[-1].counts
                counts[name] = counts.get(name, 0) + 1
                if flops is not None:
                    counts[name + "_flops"] = counts.get(name + "_flops", 0.0) + flops(args)
            return fn(*args, **kwargs)
        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap snoidal's layer functions and count numpy FFTs and eigensolves."""
        import numpy
        import snoidal
        from snoidal import cli, elliptic, evolution, spectral, waves

        modules = {"elliptic": elliptic, "waves": waves, "spectral": spectral,
                   "evolution": evolution, "cli": cli}
        replacement = {}
        for layer, module in modules.items():
            names = list(getattr(module, "__all__", ()))
            missing = [a for a in REQUIRED.get(layer, ()) if a not in names
                       or not callable(getattr(module, a, None))]
            if missing:
                raise AttributeError(f"snoidal.{layer} no longer exports {missing}")
            if layer == "cli":
                names = ["main"]  # build_parser is argparse set-up, not a layer call
            for attr in names:
                fn = getattr(module, attr)
                if isinstance(fn, type) or not callable(fn):
                    continue
                metric = f"{layer}.{RENAMES.get(attr, attr)}"
                if attr in AGGREGATED:
                    replacement[id(fn)] = self._aggregate(metric, fn)
                elif attr == "sample_wave":
                    replacement[id(fn)] = self._span(metric, fn, key=_keyed_by_N)
                else:
                    replacement[id(fn)] = self._span(metric, fn)
            for dotted, short in PRIVATE.get(layer, {}).items():
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                if not callable(getattr(owner, attr, None)):
                    raise AttributeError(f"snoidal.{layer}.{dotted} not found")
                metric = f"{layer}.{short}"
                counts = _advance_steps if dotted == "SplitStepper.advance" else None
                self._set(owner, attr, self._span(metric, getattr(owner, attr), counts=counts))
        # Rebind every module-level reference, so calls made through
        # `from .waves import sample_wave` style imports are traced too.
        for module in (snoidal, *modules.values()):
            for attr, value in list(vars(module).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)

        for attr in FFT_NAMES:
            self._set(numpy.fft, attr, self._counter("fft", getattr(numpy.fft, attr)))
        for attr, factor in EIGEN_FLOP_FACTOR.items():
            counter = self._counter(
                "eigensolves", getattr(numpy.linalg, attr),
                flops=lambda args, f=factor: f * float(len(args[0])) ** 3)
            self._set(numpy.linalg, attr, counter)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path, header: dict) -> None:
        """Write the header line, then one JSON line per node."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for node in self.nodes:
                fh.write(json.dumps(node.as_record(), sort_keys=True) + "\n")


def _keyed_by_N(name, args, kwargs) -> str:
    """Span name of one sample_wave(p, N) call: `name.N<N>`."""
    return f"{name}.N{args[1] if len(args) > 1 else kwargs.get('N')}"


def _advance_steps(args, kwargs) -> dict:
    """Step count of one SplitStepper.advance(self, ph, pt, nsteps, t0) call."""
    return {"steps": args[3] if len(args) > 3 else kwargs.get("nsteps", 0)}


def _sum(nodes, name, field="total"):
    return sum(getattr(n, field) for n in nodes if n.name == name)


def layer_metrics(nodes: list[Node], groups: list[list[int]], factor: float = 1.0) -> dict:
    """Per-layer metrics from the nodes of the ops in `groups`.

    `groups` holds the ids of the ops that passed their check, one non-empty
    list per variant of the workload (spectrum: per N); nodes of other ops
    are left out.  Metrics per op (and `spectral.*` ones, per spectral
    report) are the mean over variants of each variant's mean, so they do not
    depend on how many ops of each variant passed, and a count that is fixed
    per variant comes out the same, bit for bit, in every run.  Metrics per
    call, sample or step are plain ratios.  Times are
    inclusive unless the name says self, and are multiplied by `factor` (the
    run's speed normalization).  A layer the workload never calls reports 0.

    `trace.coverage` is the share of op time spent inside a named span below
    `cli.main`: library functions and the command line's own write and
    sweep-job helpers.  The self time of the harness's `op` span and of every
    `cli.main` span (argument parsing, dispatch, and anything the wrappers
    miss) is the uncovered rest.
    """
    def per(x, d):
        return x / d if d else 0.0

    variant_of = {op: v for v, ops in enumerate(groups) for op in ops}
    nodes = [n for n in nodes if n.op in variant_of]
    ms = 1e-6 * factor

    def balanced(pairs):
        """Mean over variants of the per-op mean of (op, value) pairs."""
        sums = [0] * len(groups)
        for op, x in pairs:
            sums[variant_of[op]] += x
        return sum(total / len(ops) for total, ops in zip(sums, groups)) / len(groups)

    calls = {}
    for n in nodes:
        calls[n.name] = calls.get(n.name, 0) + n.calls

    def weighted(name, field="total"):
        """Balanced per-op mean of `field` over the nodes called `name`."""
        return balanced((n.op, getattr(n, field)) for n in nodes if n.name == name)

    reports = weighted("spectral.full_report", "calls")
    steps = sum(n.counts.get("steps", 0) for n in nodes if n.name == "evolution.advance")
    advance = [n for n in nodes if n.name == "evolution.advance"]
    eigen_nodes = [n for n in nodes if "eigensolves" in n.counts]

    def per_report(name, field="total"):
        return per(weighted(name, field) * ms, reports)

    def per_call(name):
        return per(_sum(nodes, name) * ms, calls.get(name, 0))

    layer_self = {layer: balanced((n.op, n.self_ns) for n in nodes if n.layer == layer)
                  for layer in LAYERS}
    op_ns = _sum(nodes, "op")
    uncovered = sum(n.self_ns for n in nodes if n.name in ("op", "cli.main"))

    return {
        "elliptic.sn_calls": weighted("elliptic.sn", "calls"),
        "elliptic.sn_ms": weighted("elliptic.sn") * ms,
        "elliptic.K_calls": weighted("elliptic.K", "calls"),
        "waves.solve_modulus_ms": per_call("waves.solve_modulus"),
        "waves.sample_wave_ms.N128": per_call("waves.sample_wave.N128"),
        "waves.sample_wave_ms.N256": per_call("waves.sample_wave.N256"),
        "waves.sample_wave_ms.N512": per_call("waves.sample_wave.N512"),
        "waves.ode_residual_ms": per_call("waves.ode_residual"),
        "spectral.assemble_ms": per_report("spectral.assemble_L1")
                                + per_report("spectral.assemble_Lblock"),
        "spectral.constrain_ms": per_report("spectral.constrain"),
        "spectral.eigen_report_ms": per_report("spectral.eigen_report"),
        "spectral.D_matrix_ms": per_report("spectral.D_matrix"),
        "spectral.D1_numeric_ms": per_report("spectral.D1_numeric"),
        "spectral.d2_ms": per_report("spectral.d2"),
        "spectral.coercivity_ms": per_report("spectral.coercivity"),
        "spectral.full_report_self_ms": per_report("spectral.full_report", "self_ns"),
        "spectral.eigensolves": per(balanced((n.op, n.counts["eigensolves"])
                                             for n in eigen_nodes), reports),
        "spectral.eigensolve_flops": per(balanced((n.op, n.counts["eigensolves_flops"])
                                                  for n in eigen_nodes), reports),
        "evolution.step_us": per(sum(n.total for n in advance) * 1e-3 * factor, steps),
        "evolution.fft_per_step": per(sum(n.counts.get("fft", 0) for n in advance), steps),
        "evolution.orbit_distance_ms": per_call("evolution.orbit_distance_sample"),
        "evolution.orbit_samples": weighted("evolution.orbit_distance_sample", "calls"),
        "evolution.conserved_ms": weighted("evolution.conserved") * ms,
        "evolution.run_experiment_self_ms": weighted("evolution.run_experiment", "self_ns") * ms,
        "cli.self_ms": layer_self["cli"] * ms,
        "cli.sweep_jobs": weighted("cli.sweep_job", "calls"),
        "trace.coverage": per(op_ns - uncovered, op_ns),
        "layer_self_ms": {k: v * ms for k, v in layer_self.items()},
    }
