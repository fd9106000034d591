"""qp3: exact point-scheme and line-scheme computations for the family of
quadratic algebras A(gamma) on four generators, over Q(i)."""

__version__ = "0.1.0"
