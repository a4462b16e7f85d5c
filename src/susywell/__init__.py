"""Hyperbolic quantum well on the half line: closed-form ladder spectrum,
exact eigenfunction recursion, and an independent finite-difference
cross-validator."""
