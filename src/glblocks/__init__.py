"""Exact engine for generalized d-sections and unipotent d-blocks of GL(n,q).

Everything is computed with arbitrary-precision integers and exact
rationals; there is no floating point anywhere. All public values are
immutable (tuples, frozensets, Fractions, and read-only MappingProxyType
views for cached maps), so every function is safe to call concurrently
and no caller can corrupt a memo table; the process-wide memo tables
rely on CPython's atomic dict insertion.
"""

__version__ = "0.1.0"
