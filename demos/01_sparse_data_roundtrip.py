"""Parsing sparse-text datasets, mapping labels, and drawing reproducible splits.

Run:  python demos/01_sparse_data_roundtrip.py
"""

import numpy as np

from xrm import SplitSpec, format_sparse_text, map_labels, parse_sparse_text, split

# The on-disk format is one instance per line: a label followed by 1-based
# index:value pairs.  Missing indices are zeros.
text = """\
+1 1:0.5 3:-2
-1 2:1
+1 1:1 2:1 4:0.25
-1 1:-0.5 4:1
"""


def representation(data) -> str:
    """How a data set stores X: the parse keeps text whose entries fill less
    than 27% of the M x N matrix as a CSC sparse array, the rest dense."""
    return "dense ndarray" if isinstance(data.X, np.ndarray) else "CSC sparse array"


data = parse_sparse_text(text)
print("parsed", data.instance_count, "instances with", data.feature_count, "features;",
      "X is a", representation(data))
print("X (features x instances):")
print(data.X)
print("y:", data.y)

# A file whose entries are few against its largest index is kept sparse: the
# parse never fills the zeros of its 20 x 3 matrix.
wide = parse_sparse_text("+1 3:1 17:0.5\n-1 8:2\n+1 20:1\n")
print("\nparsed", wide.instance_count, "instances with", wide.feature_count, "features;",
      "X is a", representation(wide), f"holding {wide.X.nnz} entries")

# Labels in other encodings are mapped onto {-1, +1}: the larger raw value
# becomes +1.
print("\nlabels {0,1} map to:", map_labels([0, 1, 0, 1]))

# Splits are a pure function of (seed, trial index): rerunning a trial gives
# byte-identical partitions, and the training side always contains both
# classes.
spec = SplitSpec(train_size=2, seed=7, trials=3)
for trial in range(spec.trials):
    train_part, test_part = split(data, spec, trial)
    print(f"trial {trial}: train labels {train_part.y}, test labels {test_part.y}")

# Serialization writes nonzero entries only and round-trips exactly, in
# either representation.
again = parse_sparse_text(format_sparse_text(data))
print("\nround trip exact:", np.array_equal(again.X, data.X) and np.array_equal(again.y, data.y))
wide_again = parse_sparse_text(format_sparse_text(wide))
print("sparse round trip exact:", representation(wide_again) == representation(wide)
      and np.array_equal(wide_again.X.toarray(), wide.X.toarray()))
