"""Seeded inputs for the benchmark workloads.

``hh_spec`` is plain Python and needs no bracealg.  The compare dumps of
``ainfty-x4`` need the package; run this file as a script to write them:

    PYTHONPATH=src python3 perfbench/inputs.py ainfty --seed 7 --dir perfbench/work/ainfty-x4
"""

from __future__ import annotations

import argparse
import json
import os
import random

HH_N = 3  # k[x]/(x^3)
COMPARE_CAP = 9
PERTURB_TRIES = 10  # as in acceptance criterion 8
# The arities at which b5 can change the (4,2) model below COMPARE_CAP:
# d(b5) has arity 6, and m_4{b5} has arity 8.
PERTURBED_ARITIES = (6, 8)


def _label(e):
    return "1" if e == 0 else ("x" if e == 1 else "x^%d" % e)


def hh_spec(seed):
    """Algebra spec of k[x]/(x^3) with the monomial basis in a seeded order.

    Basis position i holds x^order[i].  The cohomology dimension table does
    not depend on the order; the cup and bracket tables do, by a relabelling.
    """
    order = list(range(HH_N))
    random.Random(seed).shuffle(order)
    pos = {e: i for i, e in enumerate(order)}

    def mono(e):
        vec = ["0"] * HH_N
        if e < HH_N:
            vec[pos[e]] = "1"
        return vec

    return {
        "dim": HH_N,
        "labels": [_label(e) for e in order],
        "unit": mono(0),
        "mult": [[i, j, mono(order[i] + order[j])] for i in range(HH_N) for j in range(HH_N)],
    }


def ainfty_structures(seed):
    """The (4,2) seeded model and its two seeded partners for ``compare``.

    Returns (m, gauged, perturbed, c, b5): ``gauged`` is m gauged by the
    central unit 1 + c*x; ``perturbed`` is m transported along (id; b5),
    with b5 redrawn until m_6 and m_8 both change.  Criterion 8 only asks
    that some m_n changes, but a draw that leaves m_8 alone lets
    ``compare`` skip a stage and run three to four times faster, which
    would make the job's cost depend on the seed.
    """
    from bracealg import hochschild as H
    from bracealg.ainfty import gauge_by_central_unit, transported_structure
    from bracealg.models import seeded_minimal_model

    rng = random.Random(seed)
    m = seeded_minimal_model(4, 2, cap=COMPARE_CAP)
    c = rng.choice([-3, -2, -1, 1, 2, 3])
    gauged = gauge_by_central_unit(m, m.algebra.element_from([1, c]))
    for _ in range(PERTURB_TRIES):
        b5 = H.random_cochain(m.algebra, 5, 2, rng, normalized=True)
        perturbed = transported_structure(m, {5: b5}, cap=COMPARE_CAP)
        if all(not (perturbed.op(n) - m.op(n)).is_zero() for n in PERTURBED_ARITIES):
            return m, gauged, perturbed, c, b5
    raise RuntimeError("seed %d: no b5 in %d draws changes m_6 and m_8" % (seed, PERTURB_TRIES))


def dump_text(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_ainfty_dumps(seed, directory):
    """Write base.json, gauged.json and perturbed.json into ``directory``."""
    from bracealg.cli import structure_to_json

    m, gauged, perturbed, _, _ = ainfty_structures(seed)
    os.makedirs(directory, exist_ok=True)
    for name, s in (("base", m), ("gauged", gauged), ("perturbed", perturbed)):
        with open(os.path.join(directory, name + ".json"), "w") as fh:
            fh.write(dump_text(structure_to_json(s)))


def main(argv=None):
    ap = argparse.ArgumentParser(description="write seeded benchmark inputs")
    ap.add_argument("kind", choices=["ainfty"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)
    write_ainfty_dumps(args.seed, args.dir)


if __name__ == "__main__":
    main()
