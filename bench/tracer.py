"""Span tracing from outside the program, for the benchmark's traced run.

`Tracer.installed()` replaces each traced public function with a wrapper at
its module attribute and at every binding of it in the loaded symphot
modules (``cli.output_state`` is the same object as
``symmetric.output_state``), and puts every original back on exit.  A span
is (name, start, end, parent, operation id, post, attributes); attributes are
computed after the span ends and their cost, ``post``, is charged to nobody's
self time.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

import numpy as np


def _pairs_compared(args, result):
    n = len(args[0])
    return {"pairs": n * (n - 1) // 2,
            "configuration": list(result.configuration.multiplicities)}


def _one_per_mode_terms(args, result):
    # each stored one-per-mode term fills exactly one qubit amplitude
    return {"terms_in": len(args[0]), "kept": int(np.count_nonzero(result[0].amplitudes))}


#: (module, attribute, span name, attributes from (args, result)).
TARGETS = (
    ("symphot.cli", "main", "cli.main", None),
    ("symphot.symmetric", "MajoranaPolynomial.roots", "symmetric.roots", None),
    ("symphot.symmetric", "params_from_coefficients", "symmetric.params_from_coefficients", None),
    ("symphot.symmetric", "output_state", "symmetric.output_state",
     lambda args, result: {"amplitudes": 2 ** result.n}),
    ("symphot.symmetric", "coefficients_from_params", "symmetric.coefficients_from_params", None),
    ("symphot.symmetric", "normalization_squared", "symmetric.normalization_squared", None),
    ("symphot.slocc", "classify_params", "slocc.classify_params", _pairs_compared),
    ("symphot.fock", "product_state", "fock.product_state",
     lambda args, result: {"terms": len(result)}),
    ("symphot.fock", "apply_creation", "fock.apply_creation", None),
    ("symphot.multiport", "distribute", "multiport.distribute",
     lambda args, result: {"terms": len(result)}),
    ("symphot.multiport", "apply_mode_isometry", "multiport.apply_mode_isometry", None),
    ("symphot.multiport", "postselect_one_per_mode", "multiport.postselect", _one_per_mode_terms),
    ("symphot.schemes", "ncl_joint_state", "schemes.ncl_joint_state", None),
    ("symphot.schemes", "project_onto", "schemes.project_onto", None),
    ("symphot.schemes", "dicke_2n_construction", "schemes.dicke_2n_construction",
     lambda args, result: {"terms": len(result)}),
    ("symphot.schemes", "rates", "schemes.rates", None),
)


def expansion_cache_entries():
    """len of multiport's expansion cache, or None once the cache is gone."""
    cache = getattr(sys.modules.get("symphot.multiport"), "_EXPANSION_CACHE", None)
    return None if cache is None else len(cache)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = None
        self._stack: list = []
        self._saved: list = []  # (owner, attribute, original)

    def _wrap(self, fn, name, attributes):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, self.op_id, 0, None]
            if attributes is not None:
                spans[index][6] = attributes(args, result)
                spans[index][5] = clock() - end
            return result

        return wrapper

    def _patch(self, owner, attribute, value):
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "symphot" or key.startswith("symphot.")]
        for module_name, attribute, name, attributes in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(cls.__dict__[method], name, attributes))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(original, name, attributes)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def write_spans(path, spans, header=None) -> None:
    """One JSON line per span, after an optional header line."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps(header) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def load_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans) -> list:
    """Duration minus the time covered by direct children (and their post)."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1] + span[5]
    return own
