"""End-to-end benchmark of the index tuner: three tuning workloads, one closed loop.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""
