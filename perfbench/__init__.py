"""Benchmark of the polyadjoint CLI and library on generated exact inputs.

Run it as ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
