"""Vectorized bit-parallel fault-simulation backend.

The package packs the good machine plus every faulty machine of a run
into contiguous machine words and evaluates levelized gates as bitwise
operations over *all* fault copies and (for batched screening) several
weighted sequences at once.  :class:`~repro.sim.vector.kernels.IntKernel`
holds one arbitrary-precision integer per net spanning every lane, so
the bitwise ops run in CPython's C bignum loops, and evaluates a
:class:`~repro.sim.vector.program.VectorProgram` compiled to
straight-line code.  It is proven bit-identical to the pure-Python
oracle in ``repro.sim.faultsim`` by the cross-backend differential test
suite.
"""

from repro.sim.vector.program import VectorProgram, build_program
from repro.sim.vector.kernels import WORD_BITS, IntKernel
from repro.sim.vector.engine import VectorEngine, VectorIncremental

__all__ = [
    "WORD_BITS",
    "VectorProgram",
    "build_program",
    "IntKernel",
    "VectorEngine",
    "VectorIncremental",
]
