"""Symbolic computation and verification for Chevalley groups with graph
automorphisms in characteristic 2: root arithmetic, commutator collection,
parabolic decompositions from cocharacters, and an independent matrix model
for the rank-2 checks."""

__version__ = "0.1.0"
