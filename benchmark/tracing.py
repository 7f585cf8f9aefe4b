"""Span recorder and the wrappers that put spans at ehcrn's layer boundaries.

Spans are recorded from outside the package.  ``instrument`` replaces each
traced public function, in every ``ehcrn`` module that looks it up, with a
wrapper that opens a span around the call, and replaces
``RandomStream`` with a subclass whose ``generator`` times the draws.
``restore`` puts the originals back, so untraced passes run the
unmodified code.

A span is ``(id, parent, name, start, end, cpu)``: start and end in
``time.perf_counter`` seconds, ``cpu`` the CPU seconds its thread spent
inside it (``time.thread_time``).  Wall spans of sweep workers include
waiting for the interpreter lock; their CPU time does not.  Spans stay
in memory until ``write`` dumps them at the end of the run.  A span
opened on a thread with no open span (a sweep worker) takes
``Recorder.root`` as its parent, which the runner sets to the span of
the pass being traced.
"""

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time

# (module that defines it, attribute, span name)
TRACED_FUNCTIONS = (
    ("ehcrn.cli", "main", "cli.main"),
    ("ehcrn.configio", "load_config", "configio.load_config"),
    ("ehcrn.sweep", "run_sweep", "sweep.run_sweep"),
    ("ehcrn.sweep", "apply_overrides", "sweep.apply_overrides"),
    ("ehcrn.sweep", "emit_csv", "sweep.emit"),
    ("ehcrn.sweep", "emit_json", "sweep.emit"),
    ("ehcrn.sweep", "emit_plot_script", "sweep.emit"),
    ("ehcrn.simulate", "run_simulation", "simulate.run_simulation"),
    ("ehcrn.simulate", "run_replication", "simulate.run_replication"),
    ("ehcrn.analytic", "operating_point", "analytic.operating_point"),
    ("ehcrn.analytic", "threshold_for_target_pf", "analytic.threshold_for_target_pf"),
    ("ehcrn.analytic", "steady_state_numeric", "analytic.steady_state_numeric"),
    ("ehcrn.gaussian", "q_tail_inverse", "gaussian.q_tail_inverse"),
    ("ehcrn.validate", "run_validation", "validate.run_validation"),
    ("ehcrn.validate", "closed_form_vs_numeric", "validate.closed_form_vs_numeric"),
)

# Generator methods the slot kernel draws from, by span name.
TIMED_DRAWS = {"random": "chains.uniform", "integers": "chains.integers", "gamma": "chains.gamma"}


class Recorder:
    """Collects spans from any thread; parents are tracked per thread."""

    def __init__(self):
        self.spans = []
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        return sid, parent, time.perf_counter(), time.thread_time()

    def close(self, name, token):
        end, cpu_end = time.perf_counter(), time.thread_time()
        self._stack().pop()
        sid, parent, start, cpu_start = token
        self.spans.append((sid, parent, name, start, end, cpu_end - cpu_start))
        return sid

    def call(self, name, fn, *args, **kwargs):
        token = self.open()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(name, token)

    def write(self, path):
        """Dump every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, start, end, cpu in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "cpu": cpu}) + "\n")


def _wrap(recorder, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(name, fn, *args, **kwargs)
    return traced


class _TimedGenerator:
    """Delegates to a numpy Generator, timing the kernel's draw methods."""

    def __init__(self, gen, recorder):
        self._gen = gen
        self._recorder = recorder

    def __getattr__(self, attr):
        method = getattr(self._gen, attr)
        name = TIMED_DRAWS.get(attr)
        return method if name is None else _wrap(self._recorder, name, method)


def _timed_stream_class(base, recorder):
    class TimedRandomStream(base):
        @property
        def generator(self):
            return _TimedGenerator(base.generator.fget(self), recorder)

    return TimedRandomStream


def _ehcrn_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ehcrn" or name.startswith("ehcrn."))]


def instrument(recorder):
    """Patch every lookup of the traced functions; returns the undo list."""
    modules = _ehcrn_modules()
    replacements = []
    for modname, attr, name in TRACED_FUNCTIONS:
        original = getattr(importlib.import_module(modname), attr)
        replacements.append((original, _wrap(recorder, name, original)))
    stream = importlib.import_module("ehcrn.chains").RandomStream
    replacements.append((stream, _timed_stream_class(stream, recorder)))
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            for original, replacement in replacements:
                if value is original:
                    setattr(module, attr, replacement)
                    undo.append((module, attr, original))
    return undo


def restore(undo):
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


# ---------------------------------------------------------------- analysis

def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """The spans inside selected pass spans, with children and self time."""

    def __init__(self, spans, pass_ids):
        by_id = {s[0]: s for s in spans}
        self.passes = [by_id[p] for p in pass_ids]
        pass_ids = set(pass_ids)
        self.spans = []
        self.pass_of = {}
        for span in spans:
            node = by_id.get(span[1])
            while node is not None and node[0] not in pass_ids:
                node = by_id.get(node[1])
            if node is not None:
                self.spans.append(span)
                self.pass_of[span[0]] = node[0]
        self.children = {}
        for span in self.spans:
            self.children.setdefault(span[1], []).append(span)

    def named(self, name):
        return [s for s in self.spans if s[2] == name]

    def durations(self, name):
        """Wall seconds of each span of that name."""
        return [s[4] - s[3] for s in self.named(name)]

    def cpu(self, name):
        """CPU seconds of each span of that name."""
        return [s[5] for s in self.named(name)]

    def self_cpu(self, span):
        """CPU seconds of a span minus those of its children.  Children run
        on the span's own thread: a worker's spans hang off the pass span."""
        return span[5] - sum(c[5] for c in self.children.get(span[0], ()))

    def uncovered_share(self):
        """Mean share of each pass's wall time that no span inside it covers."""
        inside = {p[0]: [] for p in self.passes}
        for span in self.spans:
            inside[self.pass_of[span[0]]].append((span[3], span[4]))
        shares = [1.0 - union_length(inside[pid]) / (end - start)
                  for pid, _, _, start, end, _ in self.passes]
        return sum(shares) / len(shares)
