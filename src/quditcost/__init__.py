"""Fault-tolerant non-Clifford cost comparison of d-level vs binary-register
implementations of the on-site diagonal evolution exp(-i t phi^2)."""

__version__ = "0.1.0"

from .costmodel import (
    ResourceReport, SynthesisModel, lcu_fixed_encoding_thresholds, pf_thresholds, ratio_and_budget, register_width,
)

__all__ = [
    "__version__",
    "register_width",
    "SynthesisModel",
    "pf_thresholds",
    "ResourceReport",
    "ratio_and_budget",
    "lcu_fixed_encoding_thresholds",
]
