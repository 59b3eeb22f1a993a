"""The repository benchmark: three workloads plus a traced per-layer run.

Run it from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric; the last line of standard output is one JSON object.
See ``perfbench/README.md`` for the workloads and the metric map.
"""
