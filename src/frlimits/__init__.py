"""frlimits: higher limits of fr-codes over free group presentations.

Submodules:
    frcode    -- fr-code expressions: parsing, normalization, truncation depth
    freegrp   -- free products, reduced words, cofaces and codegeneracies
    permgrp   -- permutation realization of G, Schreier machinery per level
    truncring -- Z[F]/r^N, ideal lattices, f/code's levels, maps and Moore degrees
    intlin    -- exact integer linear algebra, presented abelian groups
    limits    -- identity checks, the Moore cut of d^0, cohomology, the report
    errors    -- InputError, CapExceeded and the run budget Deadline
"""

__version__ = "0.1.0"
