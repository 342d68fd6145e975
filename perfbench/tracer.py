"""Layer spans recorded from outside the adiatrack package.

A Tracer wraps the public callables named in TARGETS while it is installed
and puts the originals back when it is removed.  Every wrapped call is a
span; its self time is its duration minus the time covered by the spans it
caused.  Self times and call counts are summed per layer for each
operation.  Spans of the coarse layers are also kept as records (layer,
parent, start, end) in memory and written out by the caller at exit; the
per-step layers (one call per schedule step or per solve) are kept as sums
only, which bounds memory.

The layers are named after the modules that own the wrapped callables.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

from adiatrack import bounds, chains, dp, harness, learners, schedules, verify


def _kernel_steps(args) -> dict:
    return {"learners.steps": int(args["t_max"])}


def _materialize_bytes(args) -> dict:
    # computed, not measured: P^(1..T+1) stack plus its row cumsums, float64
    n = args["schedule"].n
    return {"learners.materialize_bytes": (int(args["t_max"]) + 2) * n * n * 8 * 2}


# (owner, attribute, layer, keep span records, extra counts from the call's arguments)
TARGETS = (
    (harness, "run_tracking", "harness", True, None),
    (harness, "run_sweep", "harness", True, None),
    (json, "dump", "harness.io", True, None),
    (learners.TrackingTrace, "write_csv", "harness.io", True, None),
    (schedules.Schedule, "matrix_at", "schedules.walk", False, None),
    (schedules, "verify_drift", "schedules.cert_scan", True, None),
    (chains, "stationary_distribution", "chains.stationary", False, None),
    (chains, "ergodicity_coefficient", "chains.rho", False, None),
    (learners, "td0_track", "learners.kernel", True, _kernel_steps),
    (learners, "q_track", "learners.kernel", True, _kernel_steps),
    (learners, "materialize", "learners.materialize", True, _materialize_bytes),
    (dp, "exact_reward", "dp.target", False, None),
    (dp, "exact_q", "dp.target", False, lambda args: {"dp.q_solves": 1}),
    (bounds, "tracking_error_bound", "bounds", True, None),
    (bounds, "classify_regime", "bounds", True, None),
    (verify, "suite_lipschitz", "verify", True, None),
    (verify, "suite_restart", "verify", True, None),
)

# Called thousands of times per exact_q solve: counted, never timed.
COUNTED = ((dp, "bellman_g", "dp.bellman_g"),)


class Tracer:
    """Per-operation layer totals plus the span records of coarse layers."""

    def __init__(self):
        self.spans = []        # (op, id, parent id, layer, start, end)
        self.ops = []          # one {"self_s": {...}, "calls": {...}, "counts": {...}} per op
        self._stack = []       # open spans: [id, time covered by child spans]
        self._op = None
        self._op_start = 0.0
        self._next_id = 0
        self._saved = []

    # -- installing ------------------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, name, layer, keep, extra in TARGETS:
            self._patch(owner, name, self._timed(getattr(owner, name), layer, keep, extra))
        for owner, name, counter in COUNTED:
            self._patch(owner, name, self._counted(getattr(owner, name), counter))

    def remove(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    # -- operations ------------------------------------------------------
    def begin_op(self):
        self._op = {"self_s": {}, "calls": {}, "counts": {}}
        self._op_start = time.perf_counter()

    def end_op(self):
        if self._stack:
            raise RuntimeError("operation ended inside an open span")
        self.ops.append(self._op)
        self._op = None

    def _add(self, table, key, amount):
        table[key] = table.get(key, 0) + amount

    # -- wrappers --------------------------------------------------------
    def _timed(self, fn, layer, keep, extra):
        signature = inspect.signature(fn) if extra else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self._op
            if op is None:  # outside a traced operation: pass through
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s, calls = op["self_s"], op["calls"]
                self_s[layer] = self_s.get(layer, 0.0) + duration - frame[1]
                calls[layer] = calls.get(layer, 0) + 1
                if extra:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, amount in extra(bound.arguments).items():
                        self._add(op["counts"], key, amount)
                if keep:
                    self.spans.append((len(self.ops), span_id, parent, layer,
                                       start - self._op_start, end - self._op_start))

        return traced

    def _counted(self, fn, counter):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._op is not None:
                self._add(self._op["counts"], counter, 1)
            return fn(*args, **kwargs)

        return counted

    def write(self, path):
        fields = ("op", "id", "parent", "layer", "start_s", "end_s")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(fields, s)) for s in self.spans],
                       "ops": self.ops}, fh)
