"""Benchmark of subharnack; see perfbench/run.py for usage."""
