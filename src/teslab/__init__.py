"""teslab: exact Tesler functions and Macdonald-operator Hilbert series.

Everything is computed exactly over Z[q,t,1/q,1/t]; the verification suites
check each identity by at least two independent routes.
"""

from .qt_algebra import LaurentPolyQT, RatFuncQT, M, q_int, qt_int
from .young import Partition, partitions_of
from .tesler import TeslerMatrix, enumerate_tesler, tes

__all__ = [
    "LaurentPolyQT",
    "RatFuncQT",
    "M",
    "Partition",
    "TeslerMatrix",
    "enumerate_tesler",
    "partitions_of",
    "q_int",
    "qt_int",
    "tes",
]
