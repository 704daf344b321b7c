"""Benchmark harness for primesplit: seeded corpora, verifiers and an outside-in tracer."""
