"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with -s (or look at captured stdout) for the per-criterion PASS lines.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from qclab import LinearChainOperator, ModelKind, acceptance, lennard_jones


@pytest.mark.parametrize("runner", acceptance.CRITERIA, ids=lambda f: f.__name__)
def test_acceptance_criterion(runner):
    result = runner()
    print(result.line())
    assert result.passed, result.line()


def _nan_residual(real):
    return lambda m, **kw: SimpleNamespace(residual=math.nan) if m == 7 else real(m, **kw)


def _nan_last_qnl_point(real):
    def sweep(kind, *args, **kwargs):
        res = real(kind, *args, **kwargs)
        if kind is not ModelKind.QNL:
            return res
        return dataclasses.replace(res, points=res.points[:-1] + ((res.points[-1][0], math.nan),))
    return sweep


def _nan_hessian(kind, potential):
    def nan_for(real):
        def check(k, config, pot, partition=None):
            return math.nan if (k, pot) == (kind, potential) else real(k, config, pot, partition)
        return check
    return nan_for


def _nan_full_qnl_band(real):
    def assemble(kind, config, moduli, partition=None):
        if kind is ModelKind.QNL and tuple(moduli) not in ((1.0, 0.0), (0.0, 1.0)):
            return LinearChainOperator(config, kind, np.full((config.N, 5), math.nan),
                                       np.zeros(config.N))
        return real(kind, config, moduli, partition=partition)
    return assemble


# (criterion, name patched in qclab.acceptance, its NaN-giving replacement
# made from the real one, the detail that shows the NaN); each NaN comes
# after a finite value, where Python's max(0.0, nan) or min(5.5, nan) drops it
NAN_INPUTS = {
    "min_residual": (acceptance.criterion_2_min_residual, "min_residual", _nan_residual,
                     "worst bound gap nan"),
    "qnl_floor": (acceptance.criterion_4_consistency_exponents, "consistency_sweep",
                  _nan_last_qnl_point, "residual floor nan"),
    "hessian_harmonic": (acceptance.criterion_6_structure, "hessian_consistency_check",
                         _nan_hessian(ModelKind.ATOMISTIC, acceptance.POT1),
                         "hessian dev harmonic nan"),
    "hessian_lj": (acceptance.criterion_6_structure, "hessian_consistency_check",
                   _nan_hessian(ModelKind.QNL, lennard_jones()), "LJ nan"),
    "recombination": (acceptance.criterion_6_structure, "assemble_from_moduli",
                      _nan_full_qnl_band, "recombination err nan"),
    "apply": (acceptance.criterion_7_oracle_equivalence, "apply",
              lambda real: lambda op, u: np.full(len(u), math.nan) if isinstance(u, np.ndarray)
              else real(op, u), "apply vs dense nan"),
    "energy": (acceptance.criterion_7_oracle_equivalence, "total_energy",
               lambda real: lambda *args: math.nan, "energy vs brute force nan"),
    "strain": (acceptance.criterion_7_oracle_equivalence, "difference",
               lambda real: lambda u, r, order: SimpleNamespace(values=np.full(u.config.N, math.nan)),
               "strain form vs direct nan"),
}


@pytest.mark.parametrize("case", NAN_INPUTS)
def test_a_nan_input_fails_its_criterion(case, monkeypatch):
    runner, name, nan_for, shown = NAN_INPUTS[case]
    monkeypatch.setattr(acceptance, name, nan_for(getattr(acceptance, name)))
    result = runner()
    assert not result.passed and shown in result.detail, result.line()
