"""Repository benchmark: workloads, checks and tracing (see run.py)."""
