from __future__ import annotations

from hypothesis import strategies as st

from qplancherel import Partition
from qplancherel.checks import random_partitions  # noqa: F401 (shared with the test modules)


@st.composite
def partitions(draw, min_boxes: int = 0, max_boxes: int = 16):
    """Random partition built from a weakly decreasing sequence of parts."""
    n = draw(st.integers(min_value=min_boxes, max_value=max_boxes))
    parts = []
    remaining = n
    bound = n
    while remaining > 0:
        part = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(part)
        bound = part
        remaining -= part
    return Partition(tuple(parts))
