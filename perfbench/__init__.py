"""Benchmark of the SMFL reproduction: three workloads, one command (run.py)."""
