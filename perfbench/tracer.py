"""Span tracer that wraps the package's public functions from outside.

Nothing in the package knows about it: :meth:`Tracer.install` replaces
every public module-level function and public method of the layers in
``LAYERS`` with a wrapper that records a span, and then rebinds every
name that was imported from another module (``cli.classify``,
``simulator.check_ssd``, ``codinggain.check_ssd``, ...) so those calls
are counted too.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

from stats import Span, distinct_ratio, self_times

LAYERS = ("gmatrix", "clifford", "codes", "verifier", "constellations",
          "codinggain", "simulator", "cli")
# operator methods worth a span; other dunders are bookkeeping
_OPERATORS = ("__matmul__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__")
# direct children of simulate_cer whose cost does not grow with trials
FIXED_COST_SPANS = ("simulator.transmit_scale", "codes.scaled", "verifier.check_ssd",
                    "codes.weight_arrays")

now = time.perf_counter


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = "-"
        self.counts: Counter = Counter()
        self.classified: list[str] = []
        self.alloc_peaks: list[int] = []
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._paused = False         # set while hooks run, so their calls make no spans
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, now(), 0.0, parent, self.job))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = now()
        self._stack.pop()

    def _exclude(self, seconds: float) -> None:
        if self._stack:
            self.spans[self._stack[-1]].excluded += seconds

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        after = _AFTER.get(name)
        alloc_probe = name == "simulator.simulate_cer"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            # tracemalloc's per-allocation cost would swamp the per-trial
            # Python loop of the brute-force decoder, so only SSD runs are
            # measured for memory
            alloc = alloc_probe and getattr(_arg(args, kwargs, 0, "config"), "decoder",
                                            None) != "brute-ml"
            if alloc:
                t0 = now()
                tracemalloc.start()
                tracer._exclude(now() - t0)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if alloc:
                    t0 = now()
                    tracer.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                    tracer._exclude(now() - t0)
            if after is not None:
                t0 = now()
                tracer._paused = True
                try:
                    after(tracer, tracer.spans[idx], args, kwargs, result)
                finally:
                    tracer._paused = False
                tracer._exclude(now() - t0)
            return result

        return traced

    # ------------------------------------------------------------------
    # patching

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "stbc_forge") -> Tracer:
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{package}.{layer}")
            except ModuleNotFoundError:  # a layer merged away reports zeros
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self.originals[f"{layer}.{attr}"] = obj
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
                    self._set(mod, attr, wrapped[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj)
        # rebind names other modules imported with ``from .x import f``
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        return self

    def _install_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            name = f"{layer}.{attr.strip('_')}"
            self.originals[name] = member
            if inspect.isfunction(member):
                self._set(cls, attr, self.wrap(member, name))
            elif isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self.wrap(member.__func__, name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # output

    def dump(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.job, s.excluded] for s in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "excluded"],
                       "spans": rows}, fh)

    def per_layer(self) -> dict[str, tuple[float, str, int]]:
        """Per-layer metrics as name -> (value, unit, samples)."""
        selfs = self_times(self.spans)
        calls: Counter = Counter()
        own: Counter = Counter()
        total: Counter = Counter()
        layer_own: Counter = Counter()
        layer_spans: Counter = Counter()
        fixed = 0.0
        for s, st in zip(self.spans, selfs):
            calls[s.name] += 1
            own[s.name] += st
            total[s.name] += s.duration
            layer = s.name.split(".", 1)[0]
            layer_own[layer] += st
            layer_spans[layer] += 1
            if (s.name in FIXED_COST_SPANS and s.parent is not None
                    and self.spans[s.parent].name == "simulator.simulate_cer"):
                fixed += s.duration

        def group(prefixes):
            names = [n for n in calls if n in prefixes]
            return sum(own[n] for n in names), sum(calls[n] for n in names)

        build_s, build_n = group({"codes.build_max_rate_ussd", "codes.build_square_cod",
                                  "codes.build_ciod4"})
        json_s, json_n = group({"codes.code_to_json_dict", "codes.code_from_json_dict"})
        sim_n = calls["simulator.simulate_cer"]
        trials = self.counts["simulator.trials"]
        ml_n = calls["simulator.ml_decode_bruteforce"]
        cli_n = sum(1 for s in self.spans if s.name.startswith("cli.") and s.parent is None)
        peak = max(self.alloc_peaks, default=0)
        m = {
            "gmatrix.matmul.calls": (calls["gmatrix.matmul"], "count", calls["gmatrix.matmul"]),
            "gmatrix.matmul_exact.calls": (self.counts["gmatrix.matmul_exact"], "count",
                                           self.counts["gmatrix.matmul_exact"]),
            "gmatrix.matmul.self_s": (own["gmatrix.matmul"], "s", calls["gmatrix.matmul"]),
            "gmatrix.real_rank.self_s": (own["gmatrix.real_rank"], "s", calls["gmatrix.real_rank"]),
            "clifford.generate_family.self_s": (own["clifford.generate_family"], "s",
                                                calls["clifford.generate_family"]),
            "clifford.verify_family.self_s": (own["clifford.verify_family"], "s",
                                              calls["clifford.verify_family"]),
            "clifford.verify_family.checks": (self.counts["clifford.verify_family.checks"],
                                              "count", calls["clifford.verify_family"]),
            "codes.build.self_s": (build_s, "s", build_n),
            "codes.json.self_s": (json_s, "s", json_n),
            "codes.weight_arrays.calls": (calls["codes.weight_arrays"], "count",
                                          calls["codes.weight_arrays"]),
            "codes.weight_arrays.self_s": (own["codes.weight_arrays"], "s",
                                           calls["codes.weight_arrays"]),
            "verifier.classify.calls": (calls["verifier.classify"], "count",
                                        calls["verifier.classify"]),
            "verifier.classify.self_s": (own["verifier.classify"], "s", calls["verifier.classify"]),
            "verifier.check_ssd.calls": (calls["verifier.check_ssd"], "count",
                                         calls["verifier.check_ssd"]),
            "verifier.check_ssd.self_s": (own["verifier.check_ssd"], "s",
                                          calls["verifier.check_ssd"]),
            "verifier.classify.distinct_ratio": (distinct_ratio(self.classified), "ratio",
                                                 len(self.classified)),
            "constellations.self_s": (layer_own["constellations"], "s",
                                      layer_spans["constellations"]),
            "codinggain.min_det_reduced.calls": (calls["codinggain.min_det_reduced"], "count",
                                                 calls["codinggain.min_det_reduced"]),
            "codinggain.min_det_reduced.self_s": (own["codinggain.min_det_reduced"], "s",
                                                  calls["codinggain.min_det_reduced"]),
            "codinggain.min_det_full.self_s": (own["codinggain.min_det_full"], "s",
                                               calls["codinggain.min_det_full"]),
            "codinggain.min_det_full.vectors": (self.counts["codinggain.min_det_full.vectors"],
                                                "count", calls["codinggain.min_det_full"]),
            "codinggain.closed_form.self_s": (own["codinggain.min_det_closed_form"], "s",
                                              calls["codinggain.min_det_closed_form"]),
            "simulator.simulate_cer.calls": (sim_n, "count", sim_n),
            "simulator.simulate_cer.self_s": (own["simulator.simulate_cer"], "s", sim_n),
            "simulator.us_per_trial": (total["simulator.simulate_cer"] / trials * 1e6
                                       if trials else 0.0, "us", trials),
            "simulator.trials": (trials, "count", sim_n),
            "simulator.errors": (self.counts["simulator.errors"], "count", sim_n),
            "simulator.fixed_s_per_call": (fixed / sim_n if sim_n else 0.0, "s", sim_n),
            "simulator.simulate_cer.alloc_peak_mb": (peak / 2 ** 20, "MB", len(self.alloc_peaks)),
            "simulator.ml_decode_bruteforce.calls": (ml_n, "count", ml_n),
            "simulator.ml_decode_bruteforce.self_s": (own["simulator.ml_decode_bruteforce"], "s",
                                                      ml_n),
            "simulator.ml.codewords_per_trial": (self.counts["simulator.ml.codewords"] / ml_n
                                                 if ml_n else 0.0, "count", ml_n),
            "cli.commands": (cli_n, "count", cli_n),
            "cli.self_s": (layer_own["cli"], "s", cli_n),
            "cli.bytes_written": (self.counts["cli.bytes_written"], "B", cli_n),
        }
        return m


# ----------------------------------------------------------------------
# per-function hooks, run after the span closes and outside its time

def _count_exact(tracer, span, args, kwargs, result):
    if getattr(result, "is_exact", False):
        tracer.counts["gmatrix.matmul_exact"] += 1


def _count_checks(tracer, span, args, kwargs, result):
    tracer.counts["clifford.verify_family.checks"] += len(getattr(result, "checks", ()))


def _fingerprint_code(tracer, span, args, kwargs, result):
    """Content hash of the classified code, so re-loaded copies match."""
    code = _arg(args, kwargs, 0, "code")
    weight_arrays = tracer.originals.get("codes.weight_arrays")
    if weight_arrays is None:
        tracer.classified.append(f"object-{id(code)}")
        return
    h = hashlib.sha1(f"{code.label}/{code.n}".encode())
    for stack in weight_arrays(code):
        h.update(stack.tobytes())
    tracer.classified.append(h.hexdigest())


def _split_min_det(tracer, span, args, kwargs, result):
    if getattr(result, "reduced", True):
        span.name = "codinggain.min_det_reduced"
        return
    span.name = "codinggain.min_det_full"
    code = _arg(args, kwargs, 0, "code")
    points = _arg(args, kwargs, 1, "constellation").points
    # the unreduced search runs over every vector of per-slot differences,
    # zero included, except the all-zero vector
    diffs = {(round((p - q).real, 12), round((p - q).imag, 12))
             for p in points for q in points}
    tracer.counts["codinggain.min_det_full.vectors"] += len(diffs) ** code.k - 1


def _count_trials(tracer, span, args, kwargs, result):
    for p in getattr(result, "points", ()):
        tracer.counts["simulator.trials"] += p.trials
        tracer.counts["simulator.errors"] += p.errors


def _count_codewords(tracer, span, args, kwargs, result):
    code = _arg(args, kwargs, 0, "code")
    points = _arg(args, kwargs, 3, "constellation").points
    tracer.counts["simulator.ml.codewords"] += len(points) ** code.k


_AFTER = {
    "gmatrix.matmul": _count_exact,
    "clifford.verify_family": _count_checks,
    "verifier.classify": _fingerprint_code,
    "codinggain.min_det_bruteforce": _split_min_det,
    "simulator.simulate_cer": _count_trials,
    "simulator.ml_decode_bruteforce": _count_codewords,
}
