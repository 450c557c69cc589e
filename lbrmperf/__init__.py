"""LBRM benchmark: workloads, runner and outside-in tracer (see README.md)."""
