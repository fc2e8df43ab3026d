"""Secure D2D semantic communication network simulator and solver.

Maximizes network semantic secrecy throughput by jointly optimizing
knowledge-base caching, D2D user pairing, and transmit power through
Lagrangian dual decomposition, with benchmark schemes and an experiment CLI.
"""

from . import baselines, dual, matching, metrics, pair_opt, queueing, scenario

__version__ = "0.1.0"
