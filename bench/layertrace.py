"""Outside-in tracer for the wvtomo layers.

The tracer changes nothing under ``src/``.  While it is installed it rebinds
each traced public name wherever a caller looks it up: every ``wvtomo``
module attribute that holds the original function (so ``cli.exact_mse_oracle``
and ``montecarlo.exact_mse_oracle`` both reach the wrapper), or the class
attribute for a method such as ``RandomStream.uniforms``.  Each call records
a span (function, start, end, parent span) in memory.  A layer's self time
is the time its spans cover minus the time their child spans cover.

Counters read the call's arguments or result at the same boundary.  A traced
name that no longer exists yields ``calls = 0`` and a notice, never an error,
so that renames in the library do not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter

PACKAGE = "wvtomo"

# Layer name -> traced names, as "module:attribute" or "module:Class.method".
# "cli" wraps main, so its self time is everything the other layers leave.
LAYERS = {
    "cli": ["cli:main"],
    "protocol.forward": [
        "protocol:couple_and_postselect",
        "protocol:pointer_observables",
        "protocol:weak_values_exact",
        "protocol:weak_value_from_device",
    ],
    "montecarlo.table": ["montecarlo:outcome_distribution"],
    "montecarlo.sample": ["montecarlo:sample_shots"],
    "rng": ["rng:RandomStream.__init__", "rng:RandomStream.uniforms"],
    "montecarlo.estimate": [
        "montecarlo:estimate_pw",
        "montecarlo:assemble_estimate",
        "protocol:reconstruct",
    ],
    "montecarlo.oracle": ["montecarlo:exact_mse_oracle"],
    "montecarlo.experiment": ["montecarlo:run_experiment"],
    "qmath": [
        "qmath:hs_distance_sq",
        "qmath:eig_hermitian_2x2",
        "qmath:validate_density",
        "qmath:purity_stats",
        "qmath:random_pure",
        "qmath:random_mixed",
    ],
    "theory": [
        "theory:mse_raw",
        "theory:mse_raw_optimal",
        "theory:mse_hermitized",
        "theory:mse_hermitized_optimal",
        "theory:mse_hermitized_exact",
        "theory:scaled_mse_menu",
        "theory:optimal_strengths",
        "theory:numeric_optimal_strengths",
    ],
    "statefile": ["statefile:read_state_file", "statefile:write_state_file"],
}

# Exact counts.  Quantities labelled "computed" are derived from sizes, not
# measured: 24 B per shot for the uniform, index and value arrays, and two
# (2d)^3 complex matrix products (8 real flops per multiply-add) per
# couple_and_postselect call.
COUNTS = {
    "rng.draws": "count",
    "montecarlo.sample.shots": "count",
    "montecarlo.sample.bytes_computed": "B",
    "protocol.forward.flops_computed": "flop",
    # outcome_distribution calls / distinct (state, n, quadrature, g) keys
    "montecarlo.table.rebuilds": "ratio",
    "statefile.bytes": "B",
}
# Units of the per-layer figures, by the last part of their name.
LAYER_UNITS = {"calls": "count", "self_s": "s", "share": "ratio", "errors": "count"}
SAMPLE_BYTES_PER_SHOT = 24


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_draws(tally, args, kwargs, result):
    tally["rng.draws"] += len(result)


def _count_shots(tally, args, kwargs, result):
    tally["montecarlo.sample.shots"] += int(_arg(args, kwargs, 1, "n_shots"))


def _count_forward(tally, args, kwargs, result):
    d = len(result.probs)
    tally["protocol.forward.flops_computed"] += 2 * 8 * (2 * d) ** 3


def _count_table(tally, args, kwargs, result):
    rho = _arg(args, kwargs, 0, "rho")
    tally.table_keys.add((hash(rho.matrix.tobytes()), result.n, result.quadrature, result.g))


def _count_file(tally, args, kwargs, result):
    tally["statefile.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


COUNTERS = {
    "rng:RandomStream.uniforms": _count_draws,
    "montecarlo:sample_shots": _count_shots,
    "protocol:couple_and_postselect": _count_forward,
    "montecarlo:outcome_distribution": _count_table,
    "statefile:read_state_file": _count_file,
    "statefile:write_state_file": _count_file,
}


class _Tally(dict):
    def __init__(self):
        super().__init__((name, 0) for name in COUNTS)
        self.table_keys = set()


class Tracer:
    """Install with ``with tracer:``; read one pass with ``take()``."""

    def __init__(self, layers=LAYERS, counters=COUNTERS):
        self.layer_names = list(layers)
        self.notices = []
        self.func_names = []
        self._func_layer = []
        self._bindings = []  # (owner, attribute, original, wrapper)
        self._broken = set()  # counters that failed once stay off
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer_idx, layer in enumerate(self.layer_names):
            for target in layers[layer]:
                self._bind(target, layer_idx, modules, counters.get(target))
        self._reset()

    def _bind(self, target, layer_idx, modules, counter):
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.notices.append(f"{PACKAGE}.{module_name}.{path} not found; not traced")
            return
        func_idx = len(self.func_names)
        self.func_names.append(f"{module_name}.{path}")
        self._func_layer.append(layer_idx)
        wrapper = self._wrap(original, func_idx, layer_idx, counter, target)
        if isinstance(owner, type):
            self._bindings.append((owner, attr, original, wrapper))
            return
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, name, original, wrapper))

    def _wrap(self, fn, func_idx, layer_idx, counter, target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(tracer._start)
            tracer._func.append(func_idx)
            tracer._parent.append(tracer._stack[-1])
            tracer._end.append(0.0)
            tracer._stack.append(span)
            tracer._start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._errors[layer_idx] += 1
                raise
            finally:
                tracer._end[span] = perf_counter()
                tracer._stack.pop()
            if counter is not None and target not in tracer._broken:
                try:
                    counter(tracer._tally, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError) as exc:
                    tracer._broken.add(target)
                    tracer.notices.append(f"counter for {target} disabled: {exc!r}")
            return result

        return wrapper

    def _reset(self):
        self._start, self._end, self._func, self._parent = [], [], [], []
        self._stack = [-1]
        self._errors = [0] * len(self.layer_names)
        self._tally = _Tally()

    def __enter__(self):
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original, _ in reversed(self._bindings):
            setattr(owner, name, original)
        return False

    def take(self, wall_s: float) -> dict:
        """Per-layer calls, self time, share of ``wall_s`` and errors, plus
        the exact counts, for everything recorded since the last take()."""
        import numpy as np

        start = np.array(self._start)
        end = np.array(self._end)
        func = np.array(self._func, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        layer = np.array(self._func_layer, dtype=np.int64)[func]
        n_layers = len(self.layer_names)
        calls = np.bincount(layer, minlength=n_layers)
        self_s = np.bincount(layer, weights=dur - covered, minlength=n_layers)

        out = {}
        for i, name in enumerate(self.layer_names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.share"] = float(self_s[i] / wall_s)
            out[f"{name}.errors"] = int(self._errors[i])
        tally = self._tally
        tally["montecarlo.sample.bytes_computed"] = (
            SAMPLE_BYTES_PER_SHOT * tally["montecarlo.sample.shots"]
        )
        table_calls = out.get("montecarlo.table.calls", 0)
        tally["montecarlo.table.rebuilds"] = (
            table_calls / len(tally.table_keys) if tally.table_keys else 0.0
        )
        out.update(tally)
        self.last_spans = {"names": np.array(self.func_names), "func": func,
                           "start": start, "end": end, "parent": parent}
        self._reset()
        return out

    def write_spans(self, path) -> None:
        """Write the spans of the last take() as arrays: func (index into
        names), start, end (perf_counter seconds) and parent (-1 = root)."""
        import numpy as np

        np.savez(path, **self.last_spans)
