"""Span tracer that wraps framekit's layer boundaries from outside the package.

Every public function and method of the framekit modules is replaced, in each
module namespace where callers look it up, by a wrapper that records a span
(name, start, end, parent).  The ``numpy.linalg`` entry points get the same
treatment under the layer name ``linalg``, because several modules call numpy
directly instead of going through ``numkernel``.  ``json.load`` as seen by
``framekit.cli`` (the instance-file parse) is attributed to ``serialize``.

Spans live in flat arrays for one op at a time; ``take_op`` turns them into
per-layer self time and call counts and clears the buffers.  ``uninstall``
restores every patched attribute, so untraced and traced passes can share a
process.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "cli",
    "serialize",
    "generate",
    "mispace",
    "fiberframe",
    "subspace",
    "numkernel",
    "zak",
    "linalg",
)

# numpy.linalg calls that factorize a matrix (counted in linalg.factorizations)
FACTORIZATIONS = ("svd", "eigh", "eigvalsh", "qr", "solve", "lstsq", "pinv", "inv")
# further numpy.linalg entry points that are timed but not counted as factorizations
OTHER_LINALG = ("norm", "eig", "eigvals", "cholesky", "det", "slogdet", "matrix_rank")


def _matrix_count(a) -> int:
    """Matrices in a (possibly stacked) array argument: the product of its batch dims."""
    shape = np.shape(a)
    if len(shape) < 2:
        return 1
    return int(np.prod(shape[:-2], dtype=np.int64))


def _group_nbytes(group) -> int:
    """Bytes held by the array fields of a FiniteGroupSpec, computed from array sizes."""
    return sum(v.nbytes for v in vars(group).values() if isinstance(v, np.ndarray))


class _JsonProxy:
    """Stands in for the ``json`` module inside framekit.cli; only ``load`` is traced."""

    def __init__(self, load):
        self.load = load

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        # span buffers for the op in progress; cleared in place by begin_op
        self._sid = array("l")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(LAYERS.index(layer))
        return self._name_ids[name]

    def _wrap(self, fn, name: str, layer: str, count=None):
        nid = self._name_id(name, layer)
        sid, parent, start, end = self._sid, self._parent, self._start, self._end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(sid)
            sid.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                for key, amount in count(args, kwargs, result):
                    counters[key] = counters.get(key, 0) + amount
            return result

        return wrapper

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    # -- installation ---------------------------------------------------------

    def install(self, framekit_modules: dict[str, object]):
        """Wrap the layers.  framekit_modules maps layer name -> imported module."""
        namespaces = [m for n, m in sys.modules.items() if n == "framekit" or n.startswith("framekit.")]
        replaced: dict[int, object] = {}
        for layer, mod in framekit_modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    count = None
                    if layer == "serialize" and attr == "dumps":
                        count = lambda a, k, r: (("serialize.bytes_out", len(r)),)
                    if layer == "zak" and attr in ("cyclic_group", "dihedral_group", "explicit_group"):
                        count = lambda a, k, r: (("zak.table_bytes", _group_nbytes(r)),)
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer, count)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        # Rebind every name that refers to a wrapped function, in every framekit namespace.
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._patch(mod, attr, replaced[id(obj)])
        self._install_linalg()
        parse = self._wrap(json.load, "serialize.json.load", "serialize",
                           lambda a, k, r: (("serialize.bytes_in", os.fstat(a[0].fileno()).st_size),))
        self._patch(framekit_modules["cli"], "json", _JsonProxy(parse))

    def _wrap_class(self, cls, layer: str):
        for attr, raw in list(cls.__dict__.items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name, layer)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, name, layer)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name, layer))

    def _install_linalg(self):
        la = np.linalg
        for attr in FACTORIZATIONS:
            def count(a, k, r, kind=attr):
                return (("linalg.factorizations", 1), (f"linalg.{kind}", 1),
                        ("linalg.matrices", _matrix_count(a[0] if a else next(iter(k.values())))))
            self._patch(la, attr, self._wrap(getattr(la, attr), f"linalg.{attr}", "linalg", count))
        for attr in OTHER_LINALG:
            self._patch(la, attr, self._wrap(getattr(la, attr), f"linalg.{attr}", "linalg"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-op results -------------------------------------------------------

    def begin_op(self):
        """Drop anything recorded since the last op (harness code between ops)."""
        del self._sid[:], self._parent[:], self._start[:], self._end[:]
        self._stack.clear()
        self.counters.clear()

    def take_op(self) -> dict:
        """Self time and calls per layer, root-span time and counters for the op just run."""
        n = len(self._sid)
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        root_s = 0.0
        if n:
            # copies, so that begin_op may resize the buffers afterwards
            sid = np.array(self._sid, dtype=np.int_)
            parent = np.array(self._parent, dtype=np.int_)
            dur = np.array(self._end) - np.array(self._start)
            child = np.zeros(n)
            nested = parent >= 0
            np.add.at(child, parent[nested], dur[nested])
            layer = np.asarray(self.layer_of, dtype=np.int_)[sid]
            per_self = np.bincount(layer, weights=dur - child, minlength=len(LAYERS))
            per_calls = np.bincount(layer, minlength=len(LAYERS))
            for i, name in enumerate(LAYERS):
                self_s[name] = float(per_self[i])
                calls[name] = int(per_calls[i])
            root_s = float(dur[~nested].sum())
        out = {"self_s": self_s, "calls": calls, "root_s": root_s, "counters": dict(self.counters)}
        self.begin_op()
        return out
