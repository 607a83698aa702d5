"""Exact combinatorics of ordered set partitions.

Enumeration and order structure, the incidence algebra with its factorial
zeta/Moebius pair, moment-cumulant transforms for five independence
products, Weisner and Goldberg coefficients, and three routes to the CBH
series over a free algebra.  All arithmetic is exact.
"""

from ._kernels import BACKEND
from .partitions import (OrderedSetPartition, SetPartition,
                         enumerate_partitions, fubini, kernel, osp)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "OrderedSetPartition",
    "SetPartition",
    "enumerate_partitions",
    "fubini",
    "kernel",
    "osp",
    "__version__",
]
