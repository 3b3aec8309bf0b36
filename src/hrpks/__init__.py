"""Hierarchical-revocation public-key signatures over elliptic curves of
high rank.

The rank-r curve supplies r independent generators over Q; reduced mod a
prime p they span the group where keys live. Department membership is an
affine subspace mod q, signatures are Fiat-Shamir proofs of the key's
representation, and revoking a department forces later signatures to carry
a proof that the key misses its hyperplanes.

Research artifact: arithmetic is not constant-time and parameters are
desk-scale. Do not use for anything that matters.
"""

__version__ = "0.1.0"
