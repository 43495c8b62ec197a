"""koopctl benchmark: workloads, correctness checks and the traced run."""

WORKLOADS = ("single-pendulum", "double-pendulum", "stagewise-cli")
