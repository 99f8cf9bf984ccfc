"""Enumeration oracle of the elementary symmetric functions, which the
recurrence kernels of etacurv.symm are tested against."""

import math
from itertools import combinations


def sigma_brute(values, m):
    """sigma_m by explicit subset enumeration."""
    values = [float(v) for v in values]
    if not 0 <= m <= len(values):
        raise ValueError(f"m={m} outside [0, {len(values)}]")
    if m == 0:
        return 1.0
    return float(sum(math.prod(c) for c in combinations(values, m)))
