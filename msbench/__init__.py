"""Benchmark of the msgrav check engine: ``python3 msbench/run.py``."""
