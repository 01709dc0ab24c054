"""Stack benchmark: serve write/read storms and SENS batch builds at paper density.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""
