"""Hand-built pencils for the tests, from a grid operator and per-axis columns.

`Pipeline` projects each axis's kinetic matrix in place (`vn_basis.project`);
the tests form K = B^T T B with the plain dense product instead, so every
hand-built pencil also checks the assembly against that oracle.
"""

import phasegrid as pg


def grid_pencil(h_op, cols, metrics, mask=None):
    """`assemble_bvn` of the FghOperator h_op on per-axis columns and
    metrics, each axis's kinetic matrix projected as B^T T B."""
    kinetics = tuple(b.T @ t @ b for t, b in zip(h_op.ts, cols))
    return pg.assemble_bvn(h_op.v_diag, cols, metrics, kinetics, mask)
