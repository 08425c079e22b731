"""Toolkit for multipartite product bases built from control-DFT circuits,
the unextendible product bases they contain, and the bound-entangled states
on their complements.

The package re-exports nothing: import each name from the module that
defines it (``nlwe.states``, ``nlwe.upb``, ``nlwe.cli``, ...)."""

__version__ = "0.1.0"
