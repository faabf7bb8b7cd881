"""frlimits: higher limits of fr-codes over free group presentations.

Submodules:
    frcode    -- fr-code expressions: parsing, normalization, truncation depth
    freegrp   -- free products, reduced words, cofaces and codegeneracies
    permgrp   -- permutation realization of G, Schreier machinery per level
    truncring -- exact arithmetic in Z[F]/r^N, ideal lattices, code evaluation
    intlin    -- exact integer linear algebra, presented abelian groups
    limits    -- the cosimplicial complex, Moore/alternate-sum cohomology
    errors    -- InputError, CapExceeded and the run budget Deadline
"""

__version__ = "0.1.0"
