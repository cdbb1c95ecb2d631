"""Random coprime colourings of lattices: exact constants, samplers, percolation events."""

import os

# Runs before any submodule imports numpy.  The package does no BLAS work
# (its matrix products are integer products, which numpy computes without
# BLAS) and gets its parallelism from --workers processes, so an OpenBLAS
# thread pool would only spin idle.  A value the user has set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
