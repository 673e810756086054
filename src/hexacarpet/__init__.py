"""Resistance scaling on barycentric-subdivision graph families."""

from .subdivision import (
    CapacityError,
    MissingLevelError,
    SubdivisionComplex,
)

__all__ = [
    "CapacityError",
    "MissingLevelError",
    "SubdivisionComplex",
]

__version__ = "0.1.0"
