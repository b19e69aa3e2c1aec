"""The impossibility result: no symmetric interface stencil is o(1)-consistent.

For every interface width m, the consistency equations (annihilate 1, j, j^2
against the atomistic operator) restricted to a symmetric m x m block of
second-neighbor coefficients are infeasible. The witness is a weighted sum of
the equations whose block unknowns cancel exactly while the constants sum to
-2. Dropping symmetry makes the system solvable: the force-based rows do it.

Run:  python demos/03_impossibility_certificate.py
"""

from qclab import (
    build_constraint_system,
    certificate,
    min_residual,
    qcf_witness_block,
)

print("constraint system for m = 2 (unknowns x = (x11, x12, x22)):")
system = build_constraint_system(2)
for row in range(6):
    i, p = system.row_label(row)
    coeffs = -system.matrix[row]   # equations in the form  a . x = b
    rhs = -system.rhs[row]
    print(f"  row i={i}, p=j^{p}:  {coeffs} . x = {rhs}")

print("\nexact certificate (weights i^2 on p=j, -i on p=j^2):")
print(f"{'m':>3} {'weighted sum':>13} {'min residual':>13} {'2/||w||':>12} {'tight':>7}")
for m in range(1, 13):
    cert = certificate(m)          # exact int64 sums, checked bound; unknowns cancel
    res = min_residual(m)          # least-squares over symmetric blocks
    bound = cert.residual_lower_bound
    tight = abs(res.residual - bound) < 1e-10
    print(f"{m:3d} {str(cert.value):>13} {res.residual:13.8f} {bound:12.8f} {str(tight):>7}")

print("\nThe weighted sum is -2 for every m: the equations demand 0 = -2,")
print("so no symmetric block exists. The least-squares defect sits exactly")
print("on the Cauchy-Schwarz bound 2/||w||_2 -- the infeasibility is sharp.")

print("\ndropping symmetry (diagnostic): residual",
      f"{min_residual(4, symmetric=False).residual:.2e}")
print("an exact witness is the force-based (QCF) interface block:")
print(qcf_witness_block(4))
print("rows 1-2 are pure continuum stencils, rows 3-4 pure atomistic:")
print("each row annihilates 1, j, j^2 on its own, but the block is not")
print("symmetric -- symmetry is the pivotal hypothesis.")
