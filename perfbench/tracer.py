"""Layer spans recorded from outside the program.

`Tracer.install()` replaces the public functions of each knotfloer
module, and a few methods, with wrappers that record a span per call:
name, start, end, parent span and operation id. Every module-level name
bound to the same function object is rebound too, so the
`from .x import y` copies in `cli`, `invariants` and `involutive` are
covered. `uninstall()` puts the originals back. Inner loops (the
`linalg` eliminators, the `rings` polynomial arithmetic, complex
accessors) are left alone: wrapping them would cost more than they do.

Spans stay in memory; `write()` dumps them once the run is over. The
span stack is the installing thread's: a call from any other thread (the
program's `--jobs` pool) is run unrecorded and counted in
`other_thread_calls`, so the layer times are known to be short.
"""

import inspect
import itertools
import json
import os
import sys
import threading
import time
import weakref
from collections import defaultdict

MODULES = (
    "cli", "expressions", "builders", "complexes", "fileio",
    "invariants", "fu", "involutive", "bounds",
)
METHODS = {
    "complexes": {"BigradedComplex": ("tensor", "dual", "validate", "require_valid", "relabel")},
    "linalg": {"LinearSystem": ("solve",)},
}
# Functions whose argument, result or file size is worth a count.
SIZES = {
    "fu.tower_reduce": ("in_gens", lambda args, out: len(args[0])),
    "complexes.BigradedComplex.tensor": ("out_gens", lambda args, out: len(out.gens)),
    "fileio.save_complex": ("bytes", lambda args, out: os.path.getsize(args[1])),
    "fileio.load_complex": ("bytes", lambda args, out: os.path.getsize(args[0])),
}
# (complex, index) functions whose repeated evaluation is waste.
KEYED = ("invariants.y_invariant", "invariants.v_invariant")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, complex_serial, index]
        self.sizes = defaultdict(int)
        self.op = None
        self.other_thread_calls = 0
        self._owner = None
        self._other_lock = threading.Lock()
        self._stack = []
        self._undo = []
        self._serials = {}
        self._next_serial = itertools.count(1)

    # -- installing --------------------------------------------------------

    def install(self):
        import knotfloer

        self._owner = threading.get_ident()
        package = knotfloer.__name__
        namespaces = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for short in MODULES:
            module = sys.modules[f"{package}.{short}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for other, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, other, fn))
                            setattr(ns, other, wrapped)
        for short, classes in METHODS.items():
            module = sys.modules[f"{package}.{short}"]
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    self._undo.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _serial(self, obj):
        """A number per live object; a reused id() gets a new number."""
        entry = self._serials.get(id(obj))
        if entry is None or entry[0]() is not obj:
            entry = (weakref.ref(obj), next(self._next_serial))
            self._serials[id(obj)] = entry
        return entry[1]

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        size = SIZES.get(name)
        keyed = name in KEYED
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._owner:
                with self._other_lock:
                    self.other_thread_calls += 1
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            if keyed:
                span[5], span[6] = self._serial(args[0]), args[1] if len(args) > 1 else next(iter(kwargs.values()))
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                self.sizes[f"{name}.{size[0]}"] += size[1](args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- reading -------------------------------------------------------------

    def summary(self):
        """Per-layer metrics: `<name>.calls`, `.total_s`, `.self_s` plus counts.

        total_s counts a span only when no ancestor has the same name, so
        recursion is not counted twice; self_s is a span's duration minus
        its children's (one thread, so children never overlap).
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        has_child = [False] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                has_child[parent] = True
        out = defaultdict(float)
        for i, (name, start, end, parent, *_) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[i]
            if not self._nested_in(i, name.__eq__):
                out[f"{name}.total_s"] += end - start
            if name == "invariants.is_knotlike" and has_child[i]:
                out[f"{name}.computed"] += 1
        for name in KEYED:
            # V calls made inside a Y evaluation are part of that Y value.
            counted = [
                span for i, span in enumerate(spans)
                if span[0] == name
                and not (name == "invariants.v_invariant" and self._nested_in(i, "invariants.y_invariant".__eq__))
            ]
            out[f"{name}.calls"] = len(counted)
            out[f"{name}.distinct"] = len({(op, serial, index) for *_, op, serial, index in counted})
        out.update(self.sizes)
        return dict(out)

    def covered(self, match):
        """Seconds spent inside spans whose name satisfies `match`, each instant once."""
        total = 0.0
        for i, (name, start, end, parent, *_) in enumerate(self.spans):
            if match(name) and not self._nested_in(i, match):
                total += end - start
        return total

    def _nested_in(self, i, match):
        """Whether an ancestor of span i has a name satisfying `match`."""
        parent = self.spans[i][3]
        while parent >= 0:
            if match(self.spans[parent][0]):
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, *_ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
