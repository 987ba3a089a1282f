"""Closed-loop CQL benchmark: inputs, oracles, workloads, tracing, runner."""
