"""Batch front end: ingest algebra / DG / structure dumps, run pipelines,
emit machine-readable reports.

Commands: hh, transfer, massey, compare, model.  Exit codes: 0 success,
2 invariant violation in the input, 3 cap exceeded, 4 class mismatch.
Reports are schema-versioned JSON, byte-identical across runs and across
thread counts (timing is printed to stderr, never into the report).

Each command imports the modules it runs, so `hh` never loads the A-infinity
layer; the exception classes behind the exit codes are looked up only when an
exception reaches main.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

SCHEMA = "v1"

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_CAP_EXCEEDED = 3
EXIT_CLASS_MISMATCH = 4


class ConfigError(Exception):
    pass


def _field_of(spec, cap_n):
    from .linalg import GF, QQ

    if spec in (None, "qq", "QQ"):
        return QQ
    if spec.startswith("fp:"):
        try:
            p = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError("bad prime in field %r (use fp:<prime>)" % spec) from exc
        if p <= 2 * cap_n:
            raise ConfigError("prime %d must exceed twice the arity cap %d" % (p, cap_n))
        try:
            return GF(p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError("unknown field %r (use qq or fp:<prime>)" % spec)


def _emit(report, out_path, t0):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print("elapsed: %.3fs" % (time.time() - t0), file=sys.stderr)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from exc


# ---------------------------------------------------------------------------
# Structure (minimal model) dumps


def structure_to_json(m: MinimalAInfty):
    from .hochschild import differential

    data = m.to_json()
    data["algebra"] = m.algebra.to_json()
    data["schema"] = SCHEMA
    flags = {}
    for n, c in sorted(m.ops.items()):
        dc = differential(c, cap=n + 1)
        flags[str(n)] = {"is_cocycle": dc.is_zero(up_to=n + 1)}
    data["cochain_flags"] = flags
    return data


def structure_from_json(data, field=None) -> MinimalAInfty:
    from .ainfty import MinimalAInfty
    from .finite import AlgebraSpecError, LaurentAlgebra, _get, _parse_int, _parse_matrix, load_algebra
    from .hochschild import Cochain
    from .linalg import QQ

    field = field or QQ
    lam = load_algebra(_get(data, "algebra", "structure dump"), field)
    cap = _get(data, "cap", "structure dump")
    if not isinstance(cap, int):
        raise AlgebraSpecError("structure dump: cap %r is not an integer" % (cap,))
    ops = {}
    for key, dump in data.get("ops", {}).items():
        where = "ops[%s]" % key
        n = _parse_int(key, where)
        iota = _get(dump, "iota_power", where)
        if n % 2 == 0 and iota != (n - 2) // 2:
            raise AlgebraSpecError("operation %d: iota_power %r, expected %d" % (n, iota, (n - 2) // 2))
        comps = _get(dump, "components", where).get(str(n))
        if comps is None:
            raise AlgebraSpecError("operation %d: missing its own component" % n)
        mat = None
        for pos, entry in enumerate(comps):
            at = "%s.components[%d]" % (where, pos)
            entry_mat = _parse_matrix(field, _get(entry, "matrix", at), lam.dim**n, at + ".matrix")
            if not any(_get(entry, "weights", at)):
                mat = entry_mat
            elif not entry_mat.is_zero():
                raise AlgebraSpecError("operation %d: weighted components not allowed" % n)
        if mat is None:
            continue
        ops[n] = Cochain.from_matrix(lam, n, mat, iota, cap)
    return MinimalAInfty(LaurentAlgebra(lam), ops, cap)


# ---------------------------------------------------------------------------
# Commands


def cmd_hh(args, t0):
    from .finite import load_algebra
    from .hochschild import DEFAULT_CAP, CapTooLow, bracket_table, cohomology, cup_table, hh_context

    field = _field_of(args.field, args.cap_n)
    data = _load_json(args.input)
    lam = load_algebra(data, field)
    cap_p = args.cap_p
    if cap_p >= DEFAULT_CAP:
        raise CapTooLow("--cap-p must stay below the horizontal cap %d" % DEFAULT_CAP)

    def _j_for(p):
        return (p + 1) // 2

    table = {str(p): hh_context(lam, p, _j_for(p)).dim for p in range(0, cap_p + 1)}
    # cup and bracket tables on generators of low bidegrees: one table per
    # pair of arities, listed generator pair by generator pair
    gens = [(p, cohomology(lam, p, _j_for(p))) for p in range(0, min(cap_p, 4) + 1)]
    cups = {(p, q): cup_table(xs, ys) for p, xs in gens for q, ys in gens if p + q <= cap_p}
    brackets = {(p, q): bracket_table(xs, ys) for p, xs in gens for q, ys in gens if 1 <= p + q <= cap_p + 1}
    pairs = [(p, i, q, k) for p, xs in gens for i in range(len(xs)) for q, ys in gens for k in range(len(ys))]

    def entries(tables):
        return [
            {
                "left": [p, -2 * _j_for(p)],
                "right": [q, -2 * _j_for(q)],
                "coords": [field.to_str(x) for x in tables[p, q][i][k].coords],
            }
            for p, i, q, k in pairs
            if (p, q) in tables
        ]

    report = {
        "schema": SCHEMA,
        "command": "hh",
        "config": {"input": args.input, "cap_p": cap_p, "field": args.field or "qq"},
        "algebra": {"dim": lam.dim, "labels": lam.basis_labels},
        "hh_dimensions": table,
        "cup_table": entries(cups),
        "bracket_table": entries(brackets),
    }
    _emit(report, args.out, t0)
    return EXIT_OK


def _load_dga(args, field):
    if args.input:
        from .dg import DGAlgebra

        return DGAlgebra.from_json(_load_json(args.input), field)
    if args.n is not None and args.a is not None:
        from .models import complete_resolution, dg_end

        return dg_end(complete_resolution(args.n, args.a, field))
    raise ConfigError("need either an input DG dump or --n/--a model parameters")


def cmd_transfer(args, t0):
    from .ainfty import formality_verdict_of_model, transfer
    from .dg import make_contraction

    field = _field_of(args.field, args.cap_n)
    dga = _load_dga(args, field)
    con = make_contraction(dga)
    m = transfer(dga, con, args.cap_n)
    verdict = formality_verdict_of_model(m, args.cap_n)
    report = {
        "schema": SCHEMA,
        "command": "transfer",
        "config": {"input": args.input, "n": args.n, "a": args.a, "cap_n": args.cap_n, "field": args.field or "qq"},
        "h0_dim": m.algebra.dim,
        "structure": structure_to_json(m),
        "mc_residual_digest": m.report.digest(),
        "formality": verdict.verdict,
        "hypothesis_flags": getattr(dga, "hypothesis_flags", {}),
    }
    _emit(report, args.out, t0)
    return EXIT_OK


def cmd_massey(args, t0):
    from .ainfty import restricted_ump
    from .hochschild import hh_context, tate_unit_check

    field = _field_of(args.field, args.cap_n)
    if args.input:
        m = structure_from_json(_load_json(args.input), field)
    elif args.n is not None and args.a is not None:
        from .models import seeded_minimal_model

        m = seeded_minimal_model(args.n, args.a, cap=args.cap_n, field=field)
    else:
        raise ConfigError("need a structure dump or --n/--a")
    lam = m.algebra
    if m.arities():
        cls = restricted_ump(m)
    else:
        cls = hh_context(lam, 4, 1).combination([])
    zero = cls.is_zero()
    # the Tate unit test is the stable-iso test of the syzygy map Omega^4 -> L
    unit = tate_unit_check(cls)
    report = {
        "schema": SCHEMA,
        "command": "massey",
        "config": {"input": args.input, "n": args.n, "a": args.a, "cap_n": args.cap_n, "field": args.field or "qq"},
        "restricted_class": {
            "bidegree": [4, -2],
            "coords": [field.to_str(x) for x in cls.coords],
            "is_zero": bool(zero),
        },
        "tate_unit": bool(unit),
        "separable_coefficient": bool(unit.separable),
        "omega4_stable_iso_certificate": bool(unit),
    }
    _emit(report, args.out, t0)
    return EXIT_OK


def cmd_compare(args, t0):
    from .ainfty import ClassMismatch, ObstructionNotContractible, build_iso

    field = _field_of(args.field, args.cap_n)
    m = structure_from_json(_load_json(args.left), field)
    mp = structure_from_json(_load_json(args.right), field)
    report = {
        "schema": SCHEMA,
        "command": "compare",
        "config": {"left": args.left, "right": args.right, "cap_n": args.cap_n},
    }
    code = EXIT_OK
    try:
        f = build_iso(m, mp, args.cap_n)
    except ClassMismatch as exc:
        report.update(result="class_mismatch", detail=str(exc))
        code = EXIT_CLASS_MISMATCH
    except ObstructionNotContractible as exc:
        report.update(result="obstruction", obstruction_arity=exc.arity)
    else:
        report.update(
            result="isomorphism",
            linear_part="identity" if f.linear is None else "central-unit gauge",
            morphism=f.to_json(),
            residual_digest=f.residual.digest(),
        )
    _emit(report, args.out, t0)
    return code


def cmd_model(args, t0):
    from .dg import cohomology_algebra
    from .models import complete_resolution, dg_end, periodicity_witness, rigidity_check, stable_endomorphism_algebra

    field = _field_of(args.field, args.cap_n)
    if args.n is None or args.a is None:
        raise ConfigError("model command needs --n and --a")
    c = complete_resolution(args.n, args.a, field)
    e = dg_end(c)
    w, winv = periodicity_witness(e)
    lau = cohomology_algebra(e)
    report = {
        "schema": SCHEMA,
        "command": "model",
        "config": {"n": args.n, "a": args.a, "field": args.field or "qq"},
        "dga": e.to_json(),
        "h0_dim": lau.base.dim,
        "stable_end_dim": stable_endomorphism_algebra(args.n, args.a, field).dim,
        "rigid": rigidity_check(args.n, args.a, field),
        "periodicity_witness": {
            "cocycle": [field.to_str(x) for x in w],
            "inverse": [field.to_str(x) for x in winv],
        },
        "hypothesis_flags": e.hypothesis_flags,
    }
    _emit(report, args.out, t0)
    return EXIT_OK


_N_A = [("--n", {"type": int}), ("--a", {"type": int})]


def _dump_or_n_a(what):
    return [("input", {"nargs": "?", "help": what})] + _N_A


# (name, help, arguments) per subcommand; each also takes the _COMMON options
_SUBCOMMANDS = (
    ("hh", "cohomology dimension table with cup/bracket tables", [("input", {"help": "algebra spec JSON"})]),
    ("transfer", "DG input -> minimal model dump + MC residuals", _dump_or_n_a("DG algebra dump JSON")),
    ("massey", "restricted class, Tate unit test, syzygy certificate", _dump_or_n_a("structure dump JSON")),
    ("compare", "two structure dumps -> isomorphism or obstruction", [("left", {}), ("right", {})]),
    ("model", "emit the DG model for (n, a)", _N_A),
)

_COMMON = [
    ("--cap-p", {"type": int, "default": 6, "help": "horizontal cap for cohomology tables"}),
    ("--cap-n", {"type": int, "default": 8, "help": "arity cap for A-infinity operations"}),
    ("--field", {"help": "qq (default) or fp:<prime>"}),
    ("--out", {"help": "write the JSON report here"}),
    ("--threads", {"type": int, "default": 1, "help": "accepted; all work runs in one thread"}),
    ("--verbose", {"action": "store_true"}),
]


def build_parser(command):
    """The parser for a command line whose first token is `command`.

    Every subcommand is listed, but only the one named `command` gets its
    arguments, since a run parses only its own; for any other token the
    top-level help or error reads as with all of them built.
    """
    ap = argparse.ArgumentParser(
        prog="bracealg",
        description="Exact Hochschild/A-infinity pipelines on small algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, arguments in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        if name == command:
            for flag, options in arguments + _COMMON:
                p.add_argument(flag, **options)
    return ap


COMMANDS = {
    "hh": cmd_hh,
    "transfer": cmd_transfer,
    "massey": cmd_massey,
    "compare": cmd_compare,
    "model": cmd_model,
}


# (module, exception class, exit code), tried in order after ConfigError.  A
# class whose module was never imported cannot have been raised, so the
# lookup imports nothing.
_EXIT_CODES = (
    ("finite", "AlgebraSpecError", EXIT_INVALID_INPUT),
    ("models", "BadParameters", EXIT_INVALID_INPUT),
    ("dg", "NotLaurentForm", EXIT_INVALID_INPUT),
    ("hochschild", "CapTooLow", EXIT_CAP_EXCEEDED),
    ("ainfty", "ClassMismatch", EXIT_CLASS_MISMATCH),
)


def _exit_code(exc):
    """The exit code for an exception that reached main, or None."""
    if isinstance(exc, ConfigError):
        return EXIT_INVALID_INPUT
    for module, name, code in _EXIT_CODES:
        mod = sys.modules.get("%s.%s" % (__package__, module))
        if mod is not None and isinstance(exc, getattr(mod, name)):
            return code
    return None


def main(argv=None):
    t0 = time.time()
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    if args.cap_n < 4 or args.cap_p < 4:
        print("error: caps must be at least 4", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        return COMMANDS[args.command](args, t0)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print("error: %s" % exc, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
