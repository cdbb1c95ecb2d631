"""Error types and the size budgets shared across the package."""

# The most cells one array may take (sieve bytes, window points, box
# coordinates, visited bytes, lines per trial), checked before allocating.
SIZE_BUDGET = 1 << 26

# Most entries of one temporary array in a loop over a big array: a block of
# lattice_core._walk_box (gcd oracle, sublattice colouring, box enumeration)
# or of perco.label_clusters' edges and faces, a raster run of save_pnm, a
# header line of load_colouring, a forest run of label_clusters, or a Monte
# Carlo sub-batch (residues plus tested lines, per trial), so memory stays
# flat whatever the window, the box, the trial count or P.  A sub-batch's
# residues are drawn in place: a lane (trial x prime) holds its state, its
# dim residues and one draw with its scratch, 24 + 8 dim bytes.
_BATCH_ENTRIES = 1 << 16

# The most residue candidates inference may list (the sum of p^dim over
# p <= p_max), checked before any fold: on a 64^2 window the largest p_max
# under it, 251 (bound 995,777), peaks at 124.5-125.4 MB RSS.
CANDIDATE_BUDGET = 1 << 20


class DomainError(ValueError):
    """An argument is outside the range an operation is defined for."""


class ParseError(ValueError):
    """A file or stream is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
