"""Tests of the benchmark itself: seeded inputs and the outside-in tracer.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import inspect
import io
import json
import os
import sys
import threading
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import bracealg  # noqa: E402
import bracealg.cli  # noqa: E402
import inputs  # noqa: E402
import tracer as T  # noqa: E402
from bracealg.algebra import load_algebra  # noqa: E402


# ---------------------------------------------------------------------------
# Seeded inputs


def test_same_seed_same_inputs():
    assert inputs.dump_text(inputs.hh_spec(5)) == inputs.dump_text(inputs.hh_spec(5))
    a = inputs.ainfty_structures(5)
    b = inputs.ainfty_structures(5)
    for x, y in zip(a[:3], b[:3]):
        assert inputs.dump_text(bracealg.cli.structure_to_json(x)) == inputs.dump_text(bracealg.cli.structure_to_json(y))
    assert a[3] == b[3]
    assert a[4].to_json() == b[4].to_json()


def test_other_seed_changes_hh_spec_and_b5():
    assert inputs.hh_spec(0) != inputs.hh_spec(1)
    assert inputs.ainfty_structures(0)[4].to_json() != inputs.ainfty_structures(1)[4].to_json()


def test_perturbation_reaches_every_arity():
    # Seeds 0 and 7 draw a first b5 that leaves m_8 alone.
    for seed in (0, 7):
        m, _, perturbed, _, _ = inputs.ainfty_structures(seed)
        for n in inputs.PERTURBED_ARITIES:
            assert not (perturbed.op(n) - m.op(n)).is_zero()


def test_every_hh_basis_order_loads():
    orders = {tuple(inputs.hh_spec(seed)["labels"]) for seed in range(40)}
    assert len(orders) == 6
    for seed in range(40):
        lam = load_algebra(inputs.hh_spec(seed))
        assert lam.dim == 3 and lam.is_commutative()


# ---------------------------------------------------------------------------
# Self-time arithmetic on a synthetic call tree


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = T.Tracer(clock=clock)

    def leaf(x):
        clock.spend(x)

    def failing():
        clock.spend(0.5)
        raise ValueError("boom")

    def mid():
        clock.spend(1.0)
        tr.call("leaf", None, leaf, (2.0,), {})
        tr.call("leaf", None, leaf, (3.0,), {})
        try:
            tr.call("failing", None, failing, (), {})
        except ValueError:
            pass
        clock.spend(0.25)

    def root():
        clock.spend(4.0)
        tr.call("mid", None, mid, (), {})
        tr.call("leaf", None, leaf, (1.0,), {})

    tr.call("root", None, root, (), {})
    stats = tr.by_name()
    assert stats["root"].total == 4.0 + 6.75 + 1.0
    assert stats["root"].self == 4.0
    assert stats["mid"].total == 6.75
    assert stats["mid"].self == 1.25
    assert stats["leaf"].calls == 3 and stats["leaf"].self == 6.0 == stats["leaf"].total
    assert stats["failing"].raised == 1 and stats["failing"].self == 0.5
    assert sum(s.self for s in stats.values()) == stats["root"].total

    (thread,) = tr.call_tree()
    (root_node,) = thread["roots"]
    children = {c["name"]: c for c in root_node["children"]}
    assert children["leaf"]["calls"] == 1 and children["leaf"]["self_s"] == 1.0
    mid_children = {c["name"]: c for c in children["mid"]["children"]}
    assert mid_children["leaf"]["calls"] == 2 and mid_children["leaf"]["self_s"] == 5.0


def test_threads_keep_their_own_stacks():
    tr = T.Tracer()
    barrier = threading.Barrier(2)

    def inner():
        barrier.wait(timeout=10)

    def outer():
        tr.call("inner", None, inner, (), {})

    workers = [threading.Thread(target=tr.call, args=("outer", None, outer, (), {})) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)
    trees = tr.call_tree()
    assert len(trees) == 2
    for t in trees:
        (root,) = t["roots"]
        assert root["name"] == "outer" and [c["name"] for c in root["children"]] == ["inner"]
        assert root["self_s"] <= root["total_s"]


def test_layer_metrics_fold_groups_and_counters():
    a = T.Stat()
    a.calls, a.self, a.counters = 2, 1.5, {"cells": 10, "nnz": 4}
    b = T.Stat()
    b.calls, b.self = 1, 0.5
    m = T.layer_metrics({"linalg.rref": a, "linalg.Matrix.row": b})
    assert m["linalg.calls"] == 3 and m["linalg.self_s"] == 2.0
    assert m["linalg.rref.calls"] == 2 and m["linalg.rref.cells"] == 10 and m["linalg.rref.nnz"] == 4
    assert m["algebra.syzygy.calls"] == 0 and m["algebra.syzygy.repeat_calls"] == 0


# ---------------------------------------------------------------------------
# Install / uninstall


def _snapshot():
    """Every attribute the tracer may touch, by identity."""
    snap = {}
    for mod in [bracealg] + [getattr(bracealg, layer) for layer in T.LAYERS]:
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if isinstance(obj, dict) and not attr.startswith("__"):
                for k, v in obj.items():
                    snap[(mod.__name__, attr, k)] = v
            if inspect.isclass(obj):
                for name, member in vars(obj).items():
                    snap[(mod.__name__, attr, "." + name)] = member
    return snap


def test_install_then_uninstall_restores_everything():
    before = _snapshot()
    original_solve = bracealg.linalg.solve
    tr = T.Tracer()
    tr.install(bracealg)
    try:
        assert bracealg.linalg.solve is not original_solve
        # one wrapper per function, shared by every module that imported it
        assert bracealg.algebra.solve is bracealg.linalg.solve is bracealg.hochschild.solve
        assert bracealg.cli.COMMANDS["hh"] is bracealg.cli.cmd_hh
        assert bracealg.cli.cmd_hh.__wrapped__ is before[("bracealg.cli", "cmd_hh")]
        assert vars(bracealg.linalg.Matrix)["apply"] is not before[("bracealg.linalg", "Matrix", ".apply")]
        changed = [k for k, v in _snapshot().items() if before.get(k) is not v]
        assert len(changed) > 100
    finally:
        tr.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_report_is_byte_identical(tmp_path):
    spec = tmp_path / "k2.json"
    spec.write_text(inputs.dump_text(load_algebra(inputs.hh_spec(3)).to_json()))

    def hh(out):
        with redirect_stdout(io.StringIO()):
            assert bracealg.cli.main(["hh", str(spec), "--cap-p", "4", "--threads", "2", "--out", str(out)]) == 0
        return out.read_bytes()

    plain = hh(tmp_path / "plain.json")
    tr = T.Tracer()
    tr.install(bracealg)
    try:
        traced = hh(tmp_path / "traced.json")
    finally:
        tr.uninstall()
    assert plain == traced
    metrics = T.layer_metrics(tr.by_name())
    assert metrics["hochschild.brace.calls"] > 0
    assert metrics["algebra.syzygy.calls"] == 0
    assert json.loads(plain)["hh_dimensions"]["4"] == 2
