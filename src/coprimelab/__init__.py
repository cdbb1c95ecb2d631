"""Random coprime colourings of lattices: exact constants, samplers, percolation events."""

import importlib.util
import os
import sys

# Runs before any submodule imports numpy.  The package does no BLAS work
# (its matrix products are integer products, which numpy computes without
# BLAS) and gets its parallelism from --workers processes, so an OpenBLAS
# thread pool would only spin idle.  A value the user has set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"


# Each module imports its package siblings before numpy, and each command
# first touches the module that does its work (perco for the Monte Carlo
# commands and clusters, colouring for sample, layers and infer, lattice for
# check, lattice and golay), so every module a command loads compiles before
# numpy does, except rng: it imports numpy at its top and loads after
# lattice_core, and deferring that import would save only 0.1-0.2 MB.
# Without cached bytecode (PYTHONDONTWRITEBYTECODE) a module is compiled from
# source on its first import; compiled before numpy loads, the memory the
# parser frees is reused by numpy's import, and compiled after, it stays
# unused in the heap: 0.8-0.9 MB of peak RSS per module, measured on `check`
# and the Monte Carlo commands.
def _lazy(name: str):
    """Register submodule `name` in sys.modules now and run it on its first
    attribute access, so a command loads only the modules it uses (bounds,
    which needs only arith, never imports numpy)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


arith, rng, lattice_core, lattice, colouring, perco = map(
    _lazy, ("arith", "rng", "lattice_core", "lattice", "colouring", "perco"))
