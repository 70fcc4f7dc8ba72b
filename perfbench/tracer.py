"""Spans and counters recorded from outside the hopfglue package.

The tracer replaces module attributes with wrappers: the function in the
module that defines it (which catches calls inside that module) and every
other hopfglue module that imported the same object by name.  Count-only
hooks replace ``IntMatrix.__init__``, ``UnimodularMatrix.__init__`` and
``linalg.determinant``.  ``uninstall`` puts every original back, and
``all_original`` proves it.

A span is (id, name, start, end, parent id, op id).  Spans stay in memory
and are written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct child spans.
"""

import importlib
import time

MODULES = ("hopfglue", "hopfglue.linalg", "hopfglue.abelian", "hopfglue.gluing",
           "hopfglue.sweep", "hopfglue.cli", "hopfglue.selftest")

#: (layer, defining module, function) for every span-wrapped function.
SPANNED = (
    ("linalg", "hopfglue.linalg", "smith_normal_form"),
    ("linalg", "hopfglue.linalg", "random_sl3"),
    ("linalg", "hopfglue.linalg", "sl2_carry_to_e1"),
    ("linalg", "hopfglue.linalg", "inverse_unimodular"),
    ("linalg", "hopfglue.linalg", "complete_primitive_to_sl3"),
    ("abelian", "hopfglue.abelian", "group_from_presentation"),
    ("gluing", "hopfglue.gluing", "pi1_two_log_transforms"),
    ("gluing", "hopfglue.gluing", "pi1_single_gluing"),
    ("gluing", "hopfglue.gluing", "normalize_to_sl3"),
    ("gluing", "hopfglue.gluing", "reduce_to_standard"),
    ("gluing", "hopfglue.gluing", "certificate_failure"),
    ("sweep", "hopfglue.sweep", "sweep"),
    ("sweep", "hopfglue.sweep", "summarize"),
)

#: (layer, defining module, function) for count-only function hooks.
COUNTED = (("linalg", "hopfglue.linalg", "determinant"),)

#: (layer, defining module, class) whose construction is counted.
CONSTRUCTED = (
    ("linalg", "hopfglue.linalg", "IntMatrix"),
    ("linalg", "hopfglue.linalg", "UnimodularMatrix"),
)


def zero_metrics():
    """Every metric the tracer can record, at 0, for layers a run never calls."""
    zeros = {}
    for layer, _, fn in SPANNED:
        for kind in ("calls", "total_ms", "self_ms"):
            zeros[f"{layer}.{fn}.{kind}"] = 0
    for layer, _, fn in COUNTED:
        zeros[f"{layer}.{fn}.calls"] = 0
    for layer, _, cls in CONSTRUCTED:
        zeros[f"{layer}.{cls}.constructed"] = 0
    return zeros


def _originals():
    """Every attribute the tracer may replace, mapped to its object now."""
    mods = [importlib.import_module(name) for name in MODULES]
    found = {}
    for _, defmod, fn in SPANNED + COUNTED:
        original = getattr(importlib.import_module(defmod), fn)
        for mod in mods:
            if getattr(mod, fn, None) is original:
                found[(mod, fn)] = original
    for _, defmod, cls in CONSTRUCTED:
        klass = getattr(importlib.import_module(defmod), cls)
        found[(klass, "__init__")] = klass.__dict__["__init__"]
    return found


class Tracer:
    """Wrappers, spans and counts for one traced pass; snapshots the
    originals when created."""

    def __init__(self):
        self.names = []          # span name by name id
        self._name_ids = {}
        self.spans = []          # (id, name id, start, end, parent id, op id)
        self.stats = {}          # name -> [calls, total_s, self_s]
        self.counts = {}         # name -> count
        self.op_id = -1
        self._stack = []         # [span id, child seconds] of open spans
        self._next_id = 0
        self._patched = {}       # (owner, attr) -> original object
        self._baseline = _originals()

    # -- recording -----------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
        return nid

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        nid = self._name_id(name)
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        sid = self._next_id
        self._next_id = sid + 1
        frame = [sid, 0.0]
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
            self.spans.append((sid, nid, start, end, parent, self.op_id))
            entry = self.stats[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]

    # -- installing wrappers -------------------------------------------

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        if not self.all_original():
            raise RuntimeError("hopfglue attributes are already replaced")
        wrappers = {}
        for layer, _, fn in SPANNED:
            wrappers[fn] = (f"{layer}.{fn}", self._spanned)
        for layer, _, fn in COUNTED:
            wrappers[fn] = (f"{layer}.{fn}.calls", self._counted)
        for layer, _, cls in CONSTRUCTED:
            wrappers[cls] = (f"{layer}.{cls}.constructed", self._counted)
        for (owner, attr), original in self._baseline.items():
            name, make = wrappers[owner.__name__ if attr == "__init__" else attr]
            wrapper = make(name, original)
            self._patched[(owner, attr)] = original
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for (owner, attr), original in self._patched.items():
            setattr(owner, attr, original)
        self._patched = {}

    def all_original(self):
        """True iff every attribute the tracer wraps is its original object."""
        for (owner, attr), original in self._baseline.items():
            current = owner.__dict__[attr] if attr == "__init__" else getattr(owner, attr)
            if current is not original:
                return False
        return True

    # -- output --------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            names = self.names
            for sid, nid, start, end, parent, op in self.spans:
                fh.write(f"{sid},{names[nid]},{start:.9f},{end:.9f},{parent},{op}\n")
