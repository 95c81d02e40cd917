"""Per-layer spans recorded from outside the library.

The tracer wraps the public functions of each residuehd module at every
place that binds them: a function imported with ``from .x import f`` is a
separate attribute of each importing module, so patching only the defining
module would miss calls made through the others. Every module under the
``residuehd`` package is scanned for attributes that are the target object,
and each one is replaced while the tracer is installed. Lazy imports inside
function bodies read the defining module's attribute at call time, so they
see the wrapper too.

A span is ``[name, start, end, parent, op_id, info]`` and stays in memory
until the run ends. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

_clock = time.perf_counter


def _resonator_info(args, kwargs, state):
    books = kwargs.get("codebooks", args[1] if len(args) > 1 else None)
    books = list(books)
    step_bytes = sum(4 * cb.n_entries * cb.dim * 16 for cb in books)
    return {
        "sweeps": state.iteration,
        "evaluations": state.codebook_evaluations,
        "attempts": state.restarts_used + 1,
        "unconverged": 0 if state.converged else 1,
        "bytes": state.iteration * step_bytes,
    }


def _solve_info(args, kwargs, result):
    return {"attempts": result.attempts, "attempt_successes": sum(result.attempt_successes)}


def _scene_mode(args, kwargs):
    return kwargs.get("mode", args[3] if len(args) > 3 else "residue")


def targets():
    """(owner, attribute, span name, info hook, name suffix hook) per wrapped callable.

    Methods are patched on their class; module functions are patched at
    every binding found by :meth:`Tracer.installed`.
    """
    from residuehd import phasor, residue, resonator, scene, subsetsum

    return [
        (phasor, "sample_base", "phasor.sample_base", None, None),
        (phasor.PhasorVector, "to_dense", "phasor.to_dense", None, None),
        (residue, "make_residue_system", "residue.make_system", None, None),
        (residue.ResidueSystem, "encode", "residue.encode", None, None),
        (residue.ResidueSystem, "encode_factors", "residue.encode", None, None),
        (residue, "multiply", "residue.multiply", None, None),
        (residue, "crt_reconstruct", "residue.crt", None, None),
        (resonator, "build_residue_codebooks", "resonator.build_codebooks", None, None),
        (resonator, "resonator_factorize", "resonator.factorize", _resonator_info, None),
        (subsetsum, "build_factors", "subsetsum.build_factors", None, None),
        (subsetsum, "solve", "subsetsum.solve", _solve_info, None),
        (scene.SceneCodec, "build_object_codebook", "scene.build_object_codebook", None, None),
        (scene.SceneCodec, "encode_scene", "scene.encode_scene", None, None),
        (scene.SceneCodec, "factorize_scene", "scene.factorize", None, _scene_mode),
    ]


class Tracer:
    """Records spans while installed; the library is untouched otherwise."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op_id = None
        self._targets = targets()

    def _wrap(self, fn, name, info_hook, suffix_hook):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if suffix_hook is None else f"{name}.{suffix_hook(args, kwargs)}"
            rec = [span_name, _clock(), 0.0, stack[-1] if stack else -1, self._op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()
            if info_hook is not None:
                rec[5] = info_hook(args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding of every target; restore them on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "residuehd" or n.startswith("residuehd.")]
        saved = []
        try:
            for owner, attr, name, info_hook, suffix_hook in self._targets:
                original = getattr(owner, attr)
                wrapped = self._wrap(original, name, info_hook, suffix_hook)
                sites = [owner] if isinstance(owner, type) else [
                    m for m in modules if getattr(m, attr, None) is original
                ]
                for site in sites:
                    saved.append((site, attr, original))
                    setattr(site, attr, wrapped)
            yield self
        finally:
            for site, attr, original in reversed(saved):
                setattr(site, attr, original)

    @contextmanager
    def root(self, name, op_id):
        """A root span (one operation, or one set-up build)."""
        self._op_id = op_id
        rec = [name, _clock(), 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = _clock()
            self._stack.pop()
            self._op_id = None

    def summarize(self):
        """Aggregate spans by name, split by the kind of root they ran under.

        Returns ``{root_name: {span_name: {"self": s, "incl": s, "outer_incl": s,
        "calls": n, info keys...}}}``. ``outer_incl`` counts only spans with
        no ancestor of the same name, so nested calls are not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        root_of = [0] * len(spans)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                root_of[i] = root_of[parent]
            else:
                root_of[i] = i
        out = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for i, (name, start, end, parent, _, info) in enumerate(spans):
            agg = out[spans[root_of[i]][0]][name]
            dur = end - start
            agg["self"] += dur - child_time[i]
            agg["incl"] += dur
            agg["calls"] += 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                agg["outer_incl"] += dur
            if info:
                for key, value in info.items():
                    agg[key] += value
        return out
