"""Benchmark for freealg; see README.md in this directory."""
