"""Cross-checking the trainer against the slow independent references.

Every closed-form update in the solver has a brute-force counterpart in
xrm.oracles; this script reproduces the three main checks the test suite
runs at scale.

Run:  python demos/04_solver_vs_reference.py
"""

import numpy as np

from xrm import DataSet, SolverConfig, train
from xrm.oracles import (
    reference_primal_solver,
    scalar_e_minimizer,
    w_row_objective,
    w_row_reference,
)
from xrm.solver import solve_w_subproblem, update_E

rng = np.random.default_rng(3)

# 1) Whole-problem check: the augmented Lagrangian trainer against projected
#    subgradient descent on the same objective.
data = DataSet(X=rng.normal(size=(4, 24)), y=rng.choice([-1.0, 1.0], 24))
config = SolverConfig(lam=2.0, components=2, loss_power=2.0,
                      rho=1.02, outer_tol=1e-300, outer_max_iters=1200)
model, report = train(data, config)
_, _, oracle_best = reference_primal_solver(data, 2.0, 2, 2.0, max_iters=30_000)
print(f"trainer objective  {report.objective_trace[-1]:.6f}")
print(f"subgradient oracle {oracle_best:.6f}")
print(f"ratio              {report.objective_trace[-1] / oracle_best:.6f}")

# 2) Row subproblem: the exact sort-and-threshold proximal map against
#    coordinate-wise golden-section search.
C = 4
P_row = rng.normal(size=(1, C))
Q_row = rng.normal(size=(1, C))
w = solve_w_subproblem(P_row, Q_row, 1.3)[0]
w_ref = w_row_reference(P_row[0], Q_row[0], 1.3)
print("\nrow solver   :", np.round(w, 6))
print("row reference:", np.round(w_ref, 6))
print("objective gap:", w_row_objective(w, P_row[0], Q_row[0], 1.3)
      - w_row_objective(w_ref, P_row[0], Q_row[0], 1.3))

# 3) Slack update: closed forms (and clamped Newton for in-between powers,
#    here from a cold start) against a plain grid search.
for p in (1.0, 1.5, 2.0):
    e = update_E(np.array([[2.0]]), np.array([[1.0]]), lam=1.0, mu=1.0, p=p)[0][0, 0]
    e_ref = scalar_e_minimizer(1.0, 2.0, 1.0, p)
    print(f"\np={p}: slack update {e:.6f}, grid search {e_ref:.6f}")
