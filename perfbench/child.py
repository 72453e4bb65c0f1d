"""One benchmark job in a fresh interpreter, optionally traced.

    python3 perfbench/child.py [--trace-out FILE] cli <bracealg.cli arguments>
    python3 perfbench/child.py [--trace-out FILE] periodicity <n>

``cli`` runs ``bracealg.cli.main``, exactly what ``python -m bracealg.cli``
runs.  ``periodicity`` is the path of acceptance criterion 4 through the
public API: the bar resolution of k[x]/(x^n) and the comparison maps
Omega^k -> Lambda for k = 2, 4, each tested for stable invertibility; it
prints one verdict per k.

With ``--trace-out`` the tracer is installed after ``import bracealg`` and
its spans are written to FILE when the job ends, whatever its exit code.
"""

from __future__ import annotations

import json
import sys
import time


def periodicity(n):
    from bracealg.algebra import bar_resolution, build_truncated_polynomial, comparison_map_to_periodic, is_stable_iso

    res = bar_resolution(build_truncated_polynomial(n), 4)
    for k in (2, 4):
        print("Omega^%d stable iso: %s" % (k, is_stable_iso(comparison_map_to_periodic(res, k))))
    return 0


def run(argv):
    if argv[0] == "cli":
        from bracealg.cli import main

        return main(argv[1:])
    if argv[0] == "periodicity" and len(argv) == 2:
        return periodicity(int(argv[1]))
    raise SystemExit("usage: child.py [--trace-out FILE] (cli ARGS... | periodicity N)")


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if not argv:
        raise SystemExit("usage: child.py [--trace-out FILE] (cli ARGS... | periodicity N)")
    if trace_out is None:
        return run(argv)

    from tracer import Tracer

    t0 = time.perf_counter()
    import bracealg.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(bracealg)
    try:
        return run(argv)
    finally:
        tracer.uninstall()
        by_name = tracer.by_name()
        with open(trace_out, "w") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "by_name": {k: v.to_json() for k, v in sorted(by_name.items())},
                    "tree": tracer.call_tree(),
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
