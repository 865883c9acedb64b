"""Outside-in span tracer for richwave's public functions.

The tracer replaces selected functions and methods with wrappers that record
one span per call: name, start, end, parent span and batch size, plus
whether the call raised.  Spans live in flat in-memory arrays and are turned
into per-layer statistics (and optionally written to disk) once, at the end.

Modules bind names at import (``from .quadrature import integrate``), so
installing a wrapper re-binds every copy of the original object found in
the given modules' globals, including values of module-level dicts such as
the CLI's command table.  ``uninstall`` restores every binding.
"""

import functools
import time
from array import array

import numpy as np


def batch_of_first(_self, x, *args, **kwargs):
    """Points in the first argument after ``self`` (maps, interpolants)."""
    return int(np.size(x))


def batch_of_pair(_self, t, x, *args, **kwargs):
    """Points in the broadcast of ``(t, x)`` (evaluate, position, ...)."""
    return int(np.broadcast(np.asarray(t), np.asarray(x)).size)


def batch_of_states(_self, w, *args, **kwargs):
    """States in an array of shape (..., n)."""
    w = np.asarray(w)
    return int(w.size // w.shape[-1]) if w.ndim else 1


def batch_of_eigen_states(_self, _i, w, *args, **kwargs):
    return batch_of_states(_self, w)


class Tracer:
    """Span recorder for one single-threaded process.

    ``wrap(name, fn)`` returns a traced version of ``fn``; ``install`` wraps
    and re-binds a list of targets.  Spans are appended in start order, so a
    span's descendants are the spans after it that start before it ends.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.error = array("b")
        self._stack = [-1]
        self._installed = []

    def name_index(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, batch=None):
        nid = self.name_index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        points, error, stack = self.points, self.error, self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            points.append(batch(*args, **kwargs) if batch is not None else 0)
            error.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, targets, modules):
        """Wrap each ``(name, owner, attr, batch)`` target and re-bind it.

        ``owner`` is the module or class defining ``attr``.  Every global of
        ``modules`` (and every value of a dict global) that is the original
        object is replaced by the wrapper.
        """
        for name, owner, attr, batch in targets:
            original = owner.__dict__[attr]
            traced = self.wrap(name, original, batch)
            self._rebind(owner, attr, traced)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._rebind(mod, key, traced)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is original:
                                self._rebind(val, k, traced)

    def _rebind(self, holder, key, value):
        if isinstance(holder, dict):
            self._installed.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self._installed.append((holder, key, holder.__dict__[key]))
            setattr(holder, key, value)

    def uninstall(self):
        while self._installed:
            holder, key, value = self._installed.pop()
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def arrays(self):
        """The recorded spans as numpy arrays (copies)."""
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
        }

    def write(self, path):
        """Write every span once, as an ``.npz`` archive."""
        np.savez(path, **self.arrays())


def summarize(tracer, child_counts=()):
    """Per-name statistics of the recorded spans.

    Returns ``{name: {"calls", "points", "errors", "incl_s", "self_s",
    "durations", "span_points", <child>_calls...}}``.  ``incl_s`` sums only
    outermost spans of a name, so recursion (an ``integrate`` inside an
    ``integrate``) is not counted twice; ``self_s`` is each span's duration
    minus its direct children's, summed over every span.  ``child_counts``
    lists ``(stat, parent_name, child_name)``: the number of ``child_name``
    spans inside outermost ``parent_name`` spans.
    """
    a = tracer.arrays()
    nid, parent, start, end = a["name_id"], a["parent"], a["start"], a["end"]
    count = len(nid)
    dur = end - start
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=count
    )
    self_t = dur - child_time
    # Descendants of span i are the spans i+1 .. last_desc[i].
    last_desc = np.searchsorted(start, end, side="left") - 1

    out = {}
    outer_of = {}
    for k, name in enumerate(tracer.names):
        idx = np.nonzero(nid == k)[0]
        prev_end = np.maximum.accumulate(end[idx])
        outer = np.ones(len(idx), dtype=bool)
        outer[1:] = start[idx[1:]] >= prev_end[:-1]
        outer_of[name] = idx[outer]
        out[name] = {
            "calls": int(len(idx)),
            "points": int(a["points"][idx].sum()),
            "errors": int(a["error"][idx].sum()),
            "incl_s": float(dur[idx[outer]].sum()),
            "self_s": float(self_t[idx].sum()),
            "durations": dur[idx],
            "span_points": a["points"][idx],
        }
    for stat, parent_name, child_name in child_counts:
        if parent_name not in out:
            continue
        if child_name not in tracer._ids:
            out[parent_name][stat] = 0
            continue
        is_child = np.concatenate(
            [[0], np.cumsum(nid == tracer._ids[child_name], dtype=np.int64)]
        )
        roots = outer_of[parent_name]
        inside = is_child[last_desc[roots] + 1] - is_child[roots + 1]
        out[parent_name][stat] = int(inside.sum())
    return out
