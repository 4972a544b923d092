"""Every numeric threshold of the library, each with what it scales by.

The modules that compare against a threshold import it from here.  README
("Tolerances") says for which data the values are calibrated.
"""

# Feasibility: A x <= b + EPS_FEAS * (1 + |b|).
EPS_FEAS = 1e-7

# Gram-Schmidt rank cutoff, relative to the largest column norm of the matrix.
TAU_RANK = 1e-8

# Range membership: ||w - Q Q^T w|| <= TAU_RANGE * (1 + ||w||).
TAU_RANGE = 1e-7

# Face containment: a face point x stays in the slice when the residual r
# of x - x0 off range(U) has ||r|| <= TAU_CONTAIN * (1 + ||x0||).
TAU_CONTAIN = 1e-6

# Thresholds of the simplex, shared by the cold and the vertex-started path.
# An entry may pivot when it exceeds PIVOT_TOL times 1 + the largest
# magnitude in its column (row, for the dual ratio test).  A reduced cost
# below -REDUCED_COST_TOL * scale prices in, and on the vertex path a basic
# value below the same bound leaves; scale is 1 + the largest magnitude in
# A, b and c (see lp_core._limits).  A row is active at a start when its
# slack is at most REDUCED_COST_TOL times 1 + the largest magnitude in A
# and b (Polytope.scale; lp_core._active_tol), which leaves out the cost,
# so one start serves every cost.
# Phase one ends feasible when its
# objective is at most PHASE_ONE_TOL * (1 + sum|q|).  A residual artificial
# is driven out of the basis on an entry above DRIVE_OUT_TOL times 1 + the
# largest magnitude of its row.
PIVOT_TOL = 1e-10
REDUCED_COST_TOL = 1e-9
PHASE_ONE_TOL = 1e-8
DRIVE_OUT_TOL = 1e-9

# A started solve whose first run of degenerate pivots reaches
# lp_core._DEGENERATE_RUN raises the slack of each nonbasic row j at or below
# the reduced-cost threshold by STALL_SHIFT * (1 + scale) * (1 + u_j), u_j in
# [0, 1) a fixed function of j and scale the largest magnitude in A and b
# (Polytope.scale): the cost perturbation of the dual simplex.  The closing
# pricing judges the end basis at the true b.
STALL_SHIFT = 1e-6

# A multiplier above MULTIPLIER_TOL * (1 + max|y|) counts as strictly
# positive: its row is active on the whole optimal face.
MULTIPLIER_TOL = 1e-7

# A free direction of the face that leaves the slice by less than
# TAU_CONTAIN / FACE_SPAN per unit of motion is not tested: the face would
# have to be longer than FACE_SPAN * (1 + ||x0||) along it to leave the
# slice by TAU_CONTAIN.
FACE_SPAN = 1e6

# Orthonormality slack of linalg.check_orthonormal: max |Q^T Q - I|.
ORTHO_TOL = 1e-10

# complete_basis skips a unit-vector candidate with residual norm <= COMPLETE_TOL.
COMPLETE_TOL = 1e-7

# Orthonormality slack of a cost factor U_c read from an instance config.
FACTOR_ORTHO_TOL = 1e-8

# c0's norm steering converged: | ||c0|| - target | <= NORM_TOL * (1 + target).
NORM_TOL = 1e-9

# lpslice bench: a baseline value is exact within VALUE_TOL * (1 + |v_full|).
VALUE_TOL = 1e-6
