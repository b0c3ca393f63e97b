"""Layered end-to-end benchmark of the EAX-fixed encrypted database.

Run it as ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md`` for the workloads, the metrics and how the
per-layer numbers map onto the end-to-end ones.
"""
