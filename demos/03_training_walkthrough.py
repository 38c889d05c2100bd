"""Training a diverse linear ensemble end to end on synthetic blobs.

Run:  python demos/03_training_walkthrough.py
"""

import tempfile
from pathlib import Path

import numpy as np

from xrm import (
    DataSet,
    SolverConfig,
    load_model,
    predict_all,
    save_model,
    test_error,
    train,
    verify_ensemble_bound,
)

# Two Gaussian clouds, 300 points, 6 features.
rng = np.random.default_rng(1)
n, m = 300, 6
y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
direction = rng.normal(size=m)
direction /= np.linalg.norm(direction)
X = rng.normal(size=(m, n)) + np.outer(direction, y) * 1.5
data = DataSet(X=X, y=y)

config = SolverConfig(lam=2.0, components=5, loss_power=2.0)
model, report = train(data, config)

print(f"converged in {report.iterations} outer iterations "
      f"({report.wall_time * 1e3:.1f} ms)")
print("objective trace (first 5):", [round(v, 2) for v in report.objective_trace[:5]])
print("objective trace (last 3) :", [round(v, 2) for v in report.objective_trace[-3:]])
split_gap, slack_gap = report.residual_trace[-1]
print(f"final constraint residuals: split {split_gap:.2e}, slack {slack_gap:.2e}")

# The model predicts with the uniform average of its components.  Its loss is
# never above the mean component loss (convexity of the powered hinge).
holds, ens, avg = verify_ensemble_bound(model, data)
print(f"\ntraining error: {test_error(model, data):.3f}")
print(f"ensemble loss {ens:.2f} <= average component loss {avg:.2f}: {holds}")
print("first predictions:", predict_all(model, data.X[:, :5]), "true labels:", data.y[:5])

# Diversity structure of the trained components.
print("\npairwise relaxed exclusivity of trained components:")
print(np.round(report.diversity.pairwise_relaxed_exclusivity, 3))

# Models serialize to a small JSON document.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(model, path)
    again = load_model(path)
    print("\nmodel JSON round-trips:", np.array_equal(again.W, model.W))
    print("file starts with:", path.read_text()[:60].replace("\n", " "), "...")
