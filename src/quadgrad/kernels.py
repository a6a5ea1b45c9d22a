"""Kept only for the benchmark harness (perfbench/worker.py), which records
this flag with every run; the stencil and sine transforms live in ``grid``."""

USING_NUMBA = False
