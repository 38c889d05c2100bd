"""Train a fixed grid of small fits and print SHA-256 digests of their results.

The grid covers both Gram sides (20 x 60 and 80 x 30 features x instances),
X stored dense and as a CSC array, p in {1, 1.25, 1.5, 2} and C in {1, 5, 30}.
The first line's digest covers every fit's W, b, objective trace and
residual trace, so two versions of the solver print the same digest only
when they fit the grid bit for bit.  One line per p follows, with the digest
of that p's fits alone, so a change confined to one power shows which p
moved.  Two lines, one per Gram side, follow with the digests of the 20 x 60
fits (the features side) and of the 80 x 30 fits (the instances side), so a
change confined to one side's solve shows which side moved.  The last line's
digest covers the sparse text that ``format_sparse_text`` writes for each
set of the grid and for a CSC and a dense set of repeated log term counts,
so two versions print the same digest only when they write the same bytes.
Run from the repository root:

    PYTHONPATH=src python tools/fit_hash.py
"""

import hashlib
import math
import random

from xrm import DataSet, SolverConfig, format_sparse_text, parse_sparse_text, train


def sparse_text(M, N, seed):
    """N lines of about 10% density whose labels follow a fixed hyperplane."""
    rng, lines = random.Random(seed), []
    for _ in range(N):
        entries = {j: rng.gauss(0.0, 1.0) for j in rng.sample(range(1, M + 1), max(1, M // 10))}
        score = sum(value * (1 if j % 2 else -1) for j, value in entries.items())
        label = "+1" if score + rng.gauss(0.0, 0.3) > 0 else "-1"
        lines.append(label + "".join(f" {j}:{entries[j]!r}" for j in sorted(entries)))
    return "\n".join(lines) + f"\n+1 {M}:0.5\n-1 1:0.5\n"


def counts_text(M, N, seed):
    """N lines of M // 5 log term counts each, few distinct values as in
    bag-of-words files, then a line whose ``M:0.0`` leaves feature M all
    zero, so that the written text pins it."""
    rng, lines = random.Random(seed), []
    for i in range(N):
        features = sorted(rng.sample(range(1, M), M // 5))
        lines.append(("+1" if i % 2 else "-1")
                     + "".join(f" {j}:{math.log1p(rng.randint(1, 4))!r}" for j in features))
    return "\n".join(lines) + f"\n-1 {M}:0.0\n"


POWERS = (1.0, 1.25, 1.5, 2.0)
digest, fits = hashlib.sha256(), 0
power_digests = {p: hashlib.sha256() for p in POWERS}
SIDES = {(20, 60): "features", (80, 30): "instances"}
side_digests = {side: hashlib.sha256() for side in SIDES.values()}
written = []  # the sparse text of each set
for (M, N), side in SIDES.items():
    csc = parse_sparse_text(sparse_text(M, N, seed=M))
    for data in (csc, DataSet(X=csc.X.toarray(), y=csc.y)):
        written.append(format_sparse_text(data))
        for p in POWERS:
            for C in (1, 5, 30):
                model, report = train(data, SolverConfig(components=C, loss_power=p))
                for part in (model.W.tobytes(), model.b.tobytes(),
                             repr(report.objective_trace), repr(report.residual_trace)):
                    part = part if isinstance(part, bytes) else part.encode()
                    digest.update(part)
                    power_digests[p].update(part)
                    side_digests[side].update(part)
                fits += 1
print(f"fits {fits} sha256 {digest.hexdigest()}")
for p, power_digest in power_digests.items():
    print(f"p {p} fits {fits // len(POWERS)} sha256 {power_digest.hexdigest()}")
for side, side_digest in side_digests.items():
    print(f"{side} fits {fits // len(SIDES)} sha256 {side_digest.hexdigest()}")
counts = parse_sparse_text(counts_text(200, 60, seed=7))
for data in (counts, DataSet(X=counts.X.toarray(), y=counts.y)):
    written.append(format_sparse_text(data))
print(f"text sets {len(written)} sha256 {hashlib.sha256(''.join(written).encode()).hexdigest()}")
