"""qclab: a 1D atomistic/continuum coupling laboratory.

Builds atomistic, continuum and coupled (QCE, QNL, QCF, parametric) chain
operators for periodic pair-potential chains; extracts ghost forces and
consistency residuals; certifies, with an exact weighted-sum witness, that no
symmetric finite-width interface stencil can be o(1)-consistent; and measures
the resulting convergence-rate ceiling in discrete w^{1,p} norms.
"""

from .chain import ChainConfig, PeriodicField, difference, lp_norm, sample_field, zeros
from .consistency import (
    MomentReport,
    SweepResult,
    consistency_sweep,
    default_witness,
    fit_slope,
    ghost_force,
    moment_residuals,
)
from .convergence import (
    ConvergenceChecks,
    ConvergenceRow,
    ConvergenceTable,
    NumericalError,
    convergence_study,
    solve_equilibrium,
)
from .impossibility import (
    Certificate,
    CertificateError,
    ConstraintSystem,
    MinResidualResult,
    build_constraint_system,
    certificate,
    certificate_weights,
    min_residual,
    qcf_witness_block,
)
from .models import (
    InterfaceStencil,
    LinearChainOperator,
    ModelKind,
    StrainFormOperator,
    apply,
    apply_linear,
    assemble_from_moduli,
    assemble_operator,
    energy_gradient,
    hessian_consistency_check,
    symmetry_defect,
    to_strain_form,
    total_energy,
)
from .potentials import PairPotential, derivative_check, evaluate, harmonic, lennard_jones
from .regions import (
    INTERFACE,
    INTERIOR_ATOMISTIC,
    INTERIOR_CONTINUUM,
    AtomLabels,
    RegionPartition,
    classify,
    membership_mask,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ChainConfig",
    "PeriodicField",
    "difference",
    "lp_norm",
    "sample_field",
    "zeros",
    "PairPotential",
    "harmonic",
    "lennard_jones",
    "evaluate",
    "derivative_check",
    "RegionPartition",
    "AtomLabels",
    "classify",
    "membership_mask",
    "validate",
    "INTERIOR_ATOMISTIC",
    "INTERIOR_CONTINUUM",
    "INTERFACE",
    "ModelKind",
    "InterfaceStencil",
    "LinearChainOperator",
    "StrainFormOperator",
    "total_energy",
    "energy_gradient",
    "assemble_operator",
    "assemble_from_moduli",
    "apply",
    "apply_linear",
    "to_strain_form",
    "symmetry_defect",
    "hessian_consistency_check",
    "MomentReport",
    "SweepResult",
    "moment_residuals",
    "ghost_force",
    "consistency_sweep",
    "default_witness",
    "ConstraintSystem",
    "Certificate",
    "CertificateError",
    "MinResidualResult",
    "build_constraint_system",
    "certificate",
    "certificate_weights",
    "min_residual",
    "qcf_witness_block",
    "ConvergenceTable",
    "ConvergenceRow",
    "ConvergenceChecks",
    "NumericalError",
    "solve_equilibrium",
    "convergence_study",
    "fit_slope",
]
