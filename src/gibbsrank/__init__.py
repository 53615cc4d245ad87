"""Sparse additive bipartite ranking via a Gibbs pseudo-posterior and
transdimensional MCMC."""

__version__ = "0.1.0"
