"""The repo's single performance ledger.

``python3 -m bench run --workload W --seed N --seconds S --trace 0|1``
runs one workload in this process and prints one JSON result line;
without ``--workload`` it runs a whole result set (every workload, each
repeat in a fresh subprocess). ``python3 -m bench compare A.json B.json``
judges two sets with the bounds in ``BENCHMARK.json``. See ``README.md``.

Layers are measured from outside: everything here calls public functions
of ``repro`` and times them; nothing in ``src/`` is patched.
"""
