"""Simulator for discrete quantum walks on a trapped ion's motional states."""

__version__ = "0.1.0"
