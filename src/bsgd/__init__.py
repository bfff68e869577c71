"""Stochastic gradient descent for nonlinear inverse problems between
discrete Lebesgue spaces, with the Banach-space machinery (duality maps,
Bregman distances), forward models, noise models, stopping rules, and a
rate-verification harness."""

__version__ = "0.1.0"
