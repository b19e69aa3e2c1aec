"""In-memory spans around calls into qclab's public functions.

The tracer rebinds each traced function in every loaded ``qclab`` module
namespace that holds it, so calls between qclab modules are timed as well as
the benchmark's own calls. A layer's self time is its span minus the spans of
the traced calls it made. A function that no longer exists under its traced
name (or whose module is gone) is recorded as absent and reported with zero
values.
"""

from __future__ import annotations

import functools
import importlib.util
import statistics
import sys
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _chain_size(index, name):
    """Atoms of the chain passed as argument `index` (a ChainConfig)."""
    return lambda a, k: _arg(a, k, index, name).N


def _operator_size(a, k):
    return _arg(a, k, 0, "op").config.N


def _certificate_entries(a, k):
    """Rows x columns of the m-block constraint system: 3m * m(m+1)/2."""
    m = int(_arg(a, k, 0, "m"))
    return 3 * m * (m * (m + 1) // 2)


def _block_unknowns(a, k):
    m = int(_arg(a, k, 0, "m"))
    return m * (m + 1) // 2


# Traced function -> work size of one call (None: no size is recorded).
LAYERS = {
    "regions.classify": _chain_size(1, "config"),
    "regions.membership_mask": _chain_size(1, "config"),
    "models.assemble_operator": _chain_size(1, "config"),
    "models.apply_linear": _operator_size,
    "models.to_strain_form": _operator_size,
    "models.total_energy": _chain_size(1, "config"),
    "models.energy_gradient": _chain_size(1, "config"),
    "models.symmetry_defect": _operator_size,
    "consistency.moment_residuals": _operator_size,
    "consistency.ghost_force": _chain_size(1, "config"),
    "convergence.solve_equilibrium": _operator_size,
    "convergence.convergence_study": None,
    "impossibility.certificate": _certificate_entries,
    "impossibility.build_constraint_system": _block_unknowns,
    "impossibility.min_residual": None,
    "chain.lp_norm": None,
    "chain.difference": None,
    "chain.sample_field": None,
    "potentials.evaluate": None,
    "cli.main": None,
}

# Reported statistics per layer, as (statistic, unit, better).
#   self_s       median per-study self time
#   calls        median per-study call count
#   ns_per_atom  total self time over total atoms of the calls (ns_per_entry
#                for constraint-system entries)
#   unknowns     median per-study block unknowns
#   failed       calls that raised, summed over the traced studies
_SELF = ("self_s", "s", "lower")
_CALLS = ("calls", "count", "lower")
_PER_ATOM = ("ns_per_atom", "ns", "lower")
STATS = {
    "regions.classify": (_SELF, _CALLS, _PER_ATOM),
    "regions.membership_mask": (_SELF,),
    "models.assemble_operator": (_SELF, _CALLS, _PER_ATOM),
    "models.apply_linear": (_SELF, _CALLS, _PER_ATOM),
    "models.to_strain_form": (_SELF,),
    "models.total_energy": (_SELF, _PER_ATOM),
    "models.energy_gradient": (_SELF, _PER_ATOM),
    "models.symmetry_defect": (_SELF,),
    "consistency.moment_residuals": (_SELF,),
    "consistency.ghost_force": (_SELF,),
    "convergence.solve_equilibrium": (_SELF, _CALLS, _PER_ATOM, ("failed", "count", "lower")),
    "convergence.convergence_study": (_SELF,),
    "impossibility.certificate": (_SELF, ("ns_per_entry", "ns", "lower")),
    "impossibility.build_constraint_system": (_SELF, ("unknowns", "count", "lower")),
    "impossibility.min_residual": (_SELF,),
    "chain.lp_norm": (_SELF,),
    "chain.difference": (_SELF,),
    "chain.sample_field": (_SELF,),
    "potentials.evaluate": (_CALLS,),
    "cli.main": (_SELF,),
}

# Whole-run statistics reported next to the layers in a traced run.
RUN_STATS = (
    ("setup.import_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("setup.wall_s", "s", "lower"),
    ("study.samples", "count", "higher"),
    ("study.wall_s", "s", "lower"),
    ("machine.speed", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.absent_spans", "count", "lower"),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [
        (f"{layer}.{stat}", unit, better)
        for layer, stats in STATS.items()
        for stat, unit, better in stats
    ]
    return out + list(RUN_STATS)


class Tracer:
    """Span recorder; `install` before a traced study, `take` after it."""

    def __init__(self, layers=LAYERS):
        self.names = list(layers)
        self._sizes = list(layers.values())
        # span: [layer index, start, end, parent span index, size, raised]
        self.spans = []
        self._stack = []
        self._bindings = []
        self.absent = []

    def install(self):
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qclab" or name.startswith("qclab."))
        ]
        self.absent = []
        for index, qualname in enumerate(self.names):
            module_name, _, attr = qualname.rpartition(".")
            home = sys.modules.get(f"qclab.{module_name}")
            if home is None:
                # a module the workload never loaded cannot be called by it
                if importlib.util.find_spec(f"qclab.{module_name}") is None:
                    self.absent.append(qualname)
                continue
            original = getattr(home, attr, None)
            if not callable(original):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(index, original, self._sizes[index])
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._bindings.append((mod, name, original))

    def uninstall(self):
        for mod, name, original in reversed(self._bindings):
            setattr(mod, name, original)
        self._bindings.clear()

    def _wrap(self, index, fn, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = 0
            if size is not None:
                try:
                    n = size(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    n = 0
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, n, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def take(self):
        """Per-layer [self_s, calls, size, failed] of the spans recorded since
        the last call, which are then dropped (the raw spans of the latest
        study stay in `last_spans`)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        totals = [[0.0, 0, 0, 0] for _ in self.names]
        for i, (index, start, end, _, size, raised) in enumerate(spans):
            t = totals[index]
            t[0] += end - start - child[i]
            t[1] += 1
            t[2] += size
            t[3] += int(raised)
        self.last_spans = [list(s) for s in spans]
        spans.clear()
        return totals


def layer_metrics(names, per_study, scales):
    """Per-layer metric values from the `take` results of the traced studies;
    times are multiplied by each study's speed factor (speed.py)."""
    out = {}
    for index, layer in enumerate(names):
        rows = [study[index] for study in per_study]
        self_s = [r[0] * f for r, f in zip(rows, scales)]
        size_total = sum(r[2] for r in rows)
        values = {
            "self_s": statistics.median(self_s),
            "calls": statistics.median(r[1] for r in rows),
            "unknowns": statistics.median(r[2] for r in rows),
            "failed": sum(r[3] for r in rows),
        }
        per_unit = 1e9 * sum(self_s) / size_total if size_total else 0.0
        values["ns_per_atom"] = values["ns_per_entry"] = per_unit
        for stat, unit, _ in STATS.get(layer, ()):
            out[f"{layer}.{stat}"] = {"value": values[stat], "unit": unit}
    return out


def self_sum(per_study, scales):
    """Median over studies of the summed self time of every layer."""
    return statistics.median(f * sum(r[0] for r in study) for study, f in zip(per_study, scales))
