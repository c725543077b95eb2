"""Benchmark of the monarch library and CLI; run.py is the entry point."""
