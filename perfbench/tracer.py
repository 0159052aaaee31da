"""In-memory span tracer that wraps pdtls functions by module attribute.

pdtls modules call each other through module attributes
(``linalg.qr_decompose``, ``model.make_solution``) or through bare module
globals (``error_trace`` inside ``model``); both resolve through the
module's namespace at call time.  Replacing the attribute on the module
object therefore puts a span around every call, nested calls included,
without touching the package.  Callers must reach the package through
module attributes too (``pdtls.fullrank.solve_qr``), because the names
re-exported by ``pdtls/__init__.py`` are bound to the unwrapped functions.

A span is ``(name, start, end, parent, op, phase, note)``: ``parent`` is the
index of the enclosing span (-1 for a root), ``op`` numbers the root call it
belongs to, ``phase`` labels the part of the run ("setup" or a pass number),
and ``note`` is a per-function number taken from the result (bytes of the
arrays a decomposition returns, or 1 when the consistency test refuses).
"""

import contextlib
import functools
import json
import time

import numpy as np


def _out_bytes(out) -> int:
    """Bytes of the arrays held by a returned factor object (computed, not traffic)."""
    return int(sum(v.nbytes for v in vars(out).values() if isinstance(v, np.ndarray)))


def _refused(report) -> int:
    return int(not report.consistent)


NOTES = {"out_bytes": _out_bytes, "refused": _refused}

# module -> function -> name of the note taken from its result (or None).
TRACED = {
    "linalg": {
        "qr_decompose": "out_bytes",
        "complete_orthogonal_decompose": "out_bytes",
        "numeric_rank": None,
        "spectral_decompose": None,
        "solve_triangular": None,
        "cholesky": None,
    },
    "model": {
        "make_solution": None,
        "error_trace": None,
        "kkt_residual": None,
        "gram_pair": None,
    },
    "fullrank": {"solve_qr": None, "solve_spectral": None},
    "rankdef": {
        "partition_spectral": None,
        "partition_cod": None,
        "check_consistency": "refused",
        "reduced_problem": None,
        "solve_rankdef": None,
    },
    "io": {"read_matrix": None, "write_matrix": None},
    "cli": {"main": None, "cmd_solve": None},
    "generate": {"gen_full_rank": None, "gen_consistent_rankdef": None, "inject_noise": None},
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
SPAN_NOTES = {f"{mod}.{fn}": note for mod, fns in TRACED.items() for fn, note in fns.items() if note}


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._op = 0
        self._phase = None

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self._op += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, self._phase, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[6] = note(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, phase):
        """Wrap every function in TRACED for the duration of the block.

        A function the package no longer has is skipped and reads 0 calls.
        """
        saved = []
        self._phase = phase
        try:
            for mod_name, fns in TRACED.items():
                mod = getattr(self.package, mod_name)
                for fn_name, note in fns.items():
                    orig = getattr(mod, fn_name, None)
                    if orig is None:
                        continue
                    saved.append((mod, fn_name, orig))
                    wrapped = self._wrap(f"{mod_name}.{fn_name}", orig, note and NOTES[note])
                    setattr(mod, fn_name, wrapped)
            yield
        finally:
            for mod, fn_name, orig in reversed(saved):
                setattr(mod, fn_name, orig)
            self._phase = None

    def table(self):
        """Per-span arrays: duration, self time (duration minus child spans)."""
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(self.spans))
        return dur, dur - child, parent

    def summary(self, phases):
        """Totals per span name over the spans whose phase is in ``phases``.

        Returns ({name: {"calls", "self_s", "incl_s", "note"}}, root_s), where
        root_s is the summed duration of the root spans in those phases.
        """
        out = {n: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "note": 0} for n in SPAN_NAMES}
        root_s = 0.0
        if not self.spans:
            return out, root_s
        dur, self_t, parent = self.table()
        for i, span in enumerate(self.spans):
            if span[5] not in phases:
                continue
            row = out[span[0]]
            row["calls"] += 1
            row["self_s"] += float(self_t[i])
            row["incl_s"] += float(dur[i])
            row["note"] += span[6]
            if parent[i] < 0:
                root_s += float(dur[i])
        return out, root_s

    def write(self, path, header):
        """Write the spans, with a header object, as one JSON document."""
        names = {n: i for i, n in enumerate(SPAN_NAMES)}
        doc = {
            "header": header,
            "names": SPAN_NAMES,
            "columns": ["name", "start", "end", "parent", "op", "phase", "note"],
            "spans": [[names[s[0]], *s[1:]] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
