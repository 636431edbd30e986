"""Benchmark of the emulator: workloads, output checks and layer tracing."""
