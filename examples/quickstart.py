"""Quickstart: GML matrices on a simulated APGAS world, with a failure.

Builds a small distributed matrix over 4 places, runs a distributed
matrix-vector product, snapshots the matrix, kills a place, and restores
onto the survivors — the core resilient-GML loop in ~40 lines of user code.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CostModel, Runtime
from repro.matrix import DistBlockMatrix, DistVector, DupVector

# A 4-place world with a generic cluster cost profile.  `resilient=True`
# turns on failure-aware finish (with its bookkeeping cost).
rt = Runtime(nplaces=4, cost=CostModel.laptop(), resilient=True)

# An 800x100 dense matrix cut into 8 row blocks (2 per place), a duplicated
# input vector, and a distributed output aligned to the matrix's rows.
A = DistBlockMatrix.make_dense(rt, 800, 100, row_blocks=8)
A.init_random(seed=7)
x = DupVector.make(rt, 100).init_random(seed=9)
y = DistVector.make(rt, 800, partition=A.aligned_row_partition())

# y = A @ x, computed block-wise across places.
y.mult(A, x)
reference = A.to_dense().data @ x.to_array()
print("matvec max error vs NumPy:", np.abs(y.to_array() - reference).max())
print(f"virtual time so far: {rt.now() * 1e3:.2f} ms across {rt.stats.finishes} finishes")

# Snapshot the matrix (primary copy per place + backup on the next place).
snapshot = A.make_snapshot()

# Fail-stop place 2: its heap — including its matrix blocks — is destroyed.
rt.kill(2)
print("killed place 2; survivors:", rt.live_world().ids)

# Remake the matrix over the survivors (same grid: shrink-style) and
# restore its data block by block from the snapshot.
survivors = rt.live_world()
A.remake(survivors)
A.restore_snapshot(snapshot)
print("blocks per place after shrink:", A.blocks_per_place())

# The logical matrix is intact: redo the matvec on 3 places.
x.remake(survivors)
x.init_random(seed=9)
y.remake(survivors, partition=A.aligned_row_partition())
y.mult(A, x)
print("post-failure matvec max error:", np.abs(y.to_array() - reference).max())
print(f"total virtual time: {rt.now() * 1e3:.2f} ms")
