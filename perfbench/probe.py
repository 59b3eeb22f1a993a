"""Child-process probe: times the cold start of one fresh interpreter.

Usage (``src/`` on ``PYTHONPATH``)::

    python perfbench/probe.py warm x86-avx2,arm-neon
    python perfbench/probe.py cold sobel3x3 arm-neon

``warm`` imports ``repro`` and warms a ``CompilerSession`` for the given
targets, the set-up a long-lived sweep or daemon pays.  ``cold`` does
what one ``python -m repro compile`` does, split by layer: import,
``PitchforkCompiler`` construction, compile, listing.  Either prints one
JSON line of seconds.
"""

import json
import sys
import time


def main(argv):
    mode = argv[0]
    t0 = time.perf_counter()
    import repro  # noqa: F401

    t_import = time.perf_counter() - t0
    if mode == "warm":
        from repro.session import CompilerSession

        summary = CompilerSession().warm_up(targets=argv[1].split(","))
        print(json.dumps(
            {"import_s": t_import, "warm_up_s": summary["seconds"]}
        ))
        return 0
    if mode == "cold":
        from repro.pipeline import PitchforkCompiler
        from repro.session import compile_listing
        from repro.targets import by_name as target_by_name
        from repro.workloads import by_name

        wl = by_name(argv[1])
        t1 = time.perf_counter()
        compiler = PitchforkCompiler(target_by_name(argv[2]))
        t2 = time.perf_counter()
        prog = compiler.compile(wl.expr, wl.var_bounds)
        t3 = time.perf_counter()
        compile_listing(prog, wl.name)
        t4 = time.perf_counter()
        print(json.dumps({
            "import_s": t_import,
            "build_s": t2 - t1,
            "compile_s": t3 - t2,
            "listing_s": t4 - t3,
        }))
        return 0
    print(f"unknown probe mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
