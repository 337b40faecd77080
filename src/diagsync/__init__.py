"""Synchronisation analysis for the diagonal action of PSL(2,q) x PSL(2,q).

The package builds PSL(2,q) exactly, constructs the conjugacy-class
association scheme and its rational fusion, enumerates the inner-distribution
systems that a maximum clique/coclique pair with extremal product would have
to satisfy, resolves the surviving class-union Cayley graphs with exact
searches and covering programs, and verifies the group-theoretic witnesses
for the negative directions.  Every verdict is backed by a certificate that
an independent verifier can replay.
"""

__version__ = "0.3.0"
