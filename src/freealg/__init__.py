"""Finite free algebras of many-sorted varieties, built by congruence
closure saturation, with rank-bounded invariant-basis-number certificates."""

__version__ = "0.1.0"
