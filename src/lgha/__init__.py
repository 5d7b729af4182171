"""lgha: numerical harmonic analysis on 4x4 matrix Lie groups.

Group laws and Iwasawa factorizations, Euclidean and compact-group Fourier
transforms combined along the Iwasawa coordinates, Plancherel-identity
checks, and an exact conjugation calculus for Lewy-type differential
operators with constructive spectral solvers.
"""

__version__ = "0.1.0"
