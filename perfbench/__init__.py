"""End-to-end and per-layer benchmark of the property checker.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; ``python3 perfbench/repeat.py`` runs one workload
several times and prints each metric's median and quartiles.  See
``perfbench/README.md``.
"""
