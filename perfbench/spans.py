"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, a parent span and a job id. Spans are
appended to flat typed arrays (about 26 bytes each), because a traced
elliptical pass records over a million Pi calls; they are written out once,
when the run ends. The benchmark opens spans around the public calls it
makes into each layer; nothing inside the program is instrumented.
"""

import math
import statistics
import time
from array import array
from contextlib import contextmanager

import numpy as np

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("H")
        self.job = array("l")
        self._stack = []
        self._job = -1

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name):
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(self._name_id(name))
        self.job.append(self._job)
        self.end.append(math.nan)
        self.start.append(clock())
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.end[sid] = clock()
        self._stack.pop()

    @contextmanager
    def job_span(self, name, job_id):
        """Root span of one job; spans opened inside it carry ``job_id``."""
        self._job = job_id
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)
            self._job = -1

    @contextmanager
    def span(self, name):
        """Child span of the innermost open span."""
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def leaf(self, fn, name):
        """Wrap a hot scalar function so that every call records a leaf span.

        The parent and job are fixed when the wrapper is made, so the wrapper
        only reads the clock twice and appends five numbers.
        """
        parent = self._stack[-1] if self._stack else -1
        nid, job = self._name_id(name), self._job
        s_app, e_app, p_app = self.start.append, self.end.append, self.parent.append
        n_app, j_app = self.name.append, self.job.append

        def wrapped(*args):
            t0 = clock()
            value = fn(*args)
            t1 = clock()
            s_app(t0)
            e_app(t1)
            p_app(parent)
            n_app(nid)
            j_app(job)
            return value

        return wrapped

    def columns(self):
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "job": np.frombuffer(self.job, dtype=np.int64),
        }

    def by_name(self):
        """name -> (count, total duration s, total self time s).

        Self time is a span's duration minus the time its child spans cover.
        Spans come from one thread and children of one parent run one after
        another, so the covered time is the sum of the child durations.
        """
        c = self.columns()
        dur = c["end"] - c["start"]
        has_parent = c["parent"] >= 0
        covered = np.bincount(c["parent"][has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        count = np.bincount(c["name"], minlength=k)
        total = np.bincount(c["name"], weights=dur, minlength=k)
        own = np.bincount(c["name"], weights=self_time, minlength=k)
        return {n: (int(count[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names)}


def leaf_overhead_s(calls=20000, repeats=9):
    """Recorder time per ``Tracer.leaf`` call that falls outside the leaf span.

    The wrapper's frame, the clock read that ends the span and the five
    appends lie outside the leaf span, so they land in the parent's self
    time. This times a wrapped no-op against the same no-op called bare and
    takes away the recorded leaf durations; the median over ``repeats``.
    """
    def noop(arg):
        return arg

    arg = (0.0, 0.0, 0.0, 0.0)
    per_call = []
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer.leaf(noop, "leaf")
        t0 = clock()
        for _ in range(calls):
            noop(arg)
        bare = clock() - t0
        t0 = clock()
        for _ in range(calls):
            wrapped(arg)
        traced = clock() - t0
        c = tracer.columns()
        inside = float(np.sum(c["end"] - c["start"]))
        per_call.append((traced - inside - bare) / calls)
    return statistics.median(per_call)


def write_spans(path, tracers):
    """Write the spans of several passes to one .npz, with a pass column."""
    names = sorted({n for tr in tracers for n in tr.names})
    cols = {key: [] for key in ("start", "end", "parent", "name", "job", "pass")}
    for k, tr in enumerate(tracers):
        c = tr.columns()
        remap = np.array([names.index(n) for n in tr.names], dtype=np.uint16)
        for key in ("start", "end", "parent", "job"):
            cols[key].append(c[key])
        cols["name"].append(remap[c["name"]] if remap.size else c["name"])
        cols["pass"].append(np.full(c["start"].size, k, dtype=np.int16))
    arrays = {key: np.concatenate(v) if v else np.empty(0) for key, v in cols.items()}
    np.savez(path, names=np.array(names), **arrays)
