"""Command-line surface.

Exit codes: 0 success, 1 negative mathematical answer (not isomorphic,
hypothesis failed, no such group), 2 usage error or an output file or
directory that cannot be written, 3 input-format error.
Identical invocations produce byte-identical stdout; --json emits
machine-readable output with stable field names.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .classification import (
    SMALLEST_VERIFIED_ORDER,
    CyclicResult,
    ElementaryAbelianResult,
    SemidirectResult,
    classify,
    verify_theorem,
)
from .core import FiniteGroup, cyclic_group
from .enumeration import enumerate_groups
from .errors import BudgetExceededError, GroupError, InvalidActionError
from .fileformat import read_group, write_group, write_group_text
from .morphisms import (
    automorphism_group,
    colour_mismatch,
    find_isomorphism,
    fingerprint_mismatch,
)
from .products import cyclic_power_semidirect, direct_product
from .recognition import recognize
from .subgroups import subgroup_from_members


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _print_group(group: FiniteGroup, out: str | None, comments: list[str]) -> None:
    if out:
        _write(group, out, comments)
    else:
        sys.stdout.write(write_group_text(group, comments))


class _InputError(Exception):
    """Wraps any failure while reading an input group file (exit code 3)."""


class _UsageError(Exception):
    """An argument the command cannot use, or an output file or directory
    that cannot be written (exit code 2)."""


def _write(group: FiniteGroup, path: str | Path, comments: list[str]) -> None:
    try:
        write_group(group, path, comments)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load(path: str) -> FiniteGroup:
    try:
        return read_group(path)
    except (GroupError, OSError) as exc:
        raise _InputError(str(exc)) from exc


def _map_line(mapping) -> str:
    return "map: " + " ".join(str(v) for v in mapping)


def _cmd_construct(args) -> int:
    if args.what == "cyclic":
        group = cyclic_group(args.n)
        _print_group(group, args.out, [f"cyclic group of order {args.n}"])
        return 0
    if args.what == "direct":
        a = _load(args.file_a)
        b = _load(args.file_b)
        group = direct_product(a, b).group
        _print_group(group, args.out, [f"direct product of orders {a.order} x {b.order}"])
        return 0
    # sdp: C_q x| C_p with the generator of C_p acting as r -> r^k.
    q, p, k = args.q, args.p, args.k
    group = cyclic_power_semidirect(q, p, k).group
    _print_group(group, args.out, [f"C_{q} x| C_{p} with action r -> r^{k}"])
    return 0


def _cmd_classify(args) -> int:
    group = _load(args.file)
    result = classify(group)
    payload = {"kind": result.kind, "order": group.order, "iso": list(result.iso.forward.map)}
    if isinstance(result, CyclicResult):
        payload["generator"] = result.generator
    elif isinstance(result, ElementaryAbelianResult):
        payload["p"] = result.p
    elif isinstance(result, SemidirectResult):
        payload.update({"p": result.p, "q": result.q, "k": result.k})
    if args.json:
        _emit_json(payload)
    else:
        print(result.describe())
        print(_map_line(result.iso.forward.map))
    return 0


def _cmd_iso(args) -> int:
    g1 = _load(args.file_a)
    g2 = _load(args.file_b)
    iso = find_isomorphism(g1, g2)
    if iso is None:
        reason = fingerprint_mismatch(g1, g2) or colour_mismatch(g1, g2) or "search exhausted"
        if args.json:
            _emit_json({"isomorphic": False, "reason": reason})
        else:
            print(f"not isomorphic: {reason}" + ("" if reason == "search exhausted" else " differ"))
        return 1
    if args.json:
        _emit_json({"isomorphic": True, "map": list(iso.forward.map)})
    else:
        print("isomorphic")
        print(_map_line(iso.forward.map))
    return 0


def _cmd_aut(args) -> int:
    group = _load(args.file)
    aut = automorphism_group(group)
    cyclic = aut.carrier.is_cyclic()
    if args.json:
        _emit_json({"order": aut.carrier.order, "cyclic": cyclic})
    else:
        print(f"automorphism group order: {aut.carrier.order}")
        print(f"cyclic: {'yes' if cyclic else 'no'}")
    return 0


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise InvalidActionError(f"bad index list {text!r}")


def _cmd_recognize(args) -> int:
    group = _load(args.file)
    sub_n = subgroup_from_members(group, _parse_indices(args.n))
    sub_h = subgroup_from_members(group, _parse_indices(args.h))
    # One recognizer, chosen from the hypotheses; its error is the answer.
    kind, iso = recognize(group, sub_n, sub_h)
    product_group, mapping = iso.target, iso.forward.map
    if args.json:
        _emit_json(
            {
                "kind": kind,
                "n": list(sub_n.members),
                "h": list(sub_h.members),
                "product": product_group.table.tolist(),
                "iso": list(mapping),
            }
        )
    else:
        print(kind)
        print(f"n: {' '.join(str(x) for x in sub_n.members)}")
        print(f"h: {' '.join(str(x) for x in sub_h.members)}")
        sys.stdout.write(write_group_text(product_group, ["product group"]))
        print(_map_line(mapping))
    return 0


def _cmd_enumerate(args) -> int:
    if args.n < 1:
        raise _UsageError(f"order {args.n} is not a group order; it must be at least 1")
    report = enumerate_groups(args.n, budget=args.budget)
    if args.out:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _UsageError(f"cannot write {out_dir}: {exc.strerror or exc}") from exc
        for idx, rep in enumerate(report.representatives):
            _write(
                rep,
                out_dir / f"order{args.n}_class{idx}.cayley",
                [f"order {args.n}, class {idx} of {report.count}"],
            )
    if args.json:
        _emit_json(
            {
                "order": args.n,
                "count": report.count,
                "nodes": report.stats.nodes,
                "tables_completed": report.stats.tables_completed,
                "iso_rejections": report.stats.iso_rejections,
                "representatives": [rep.table.tolist() for rep in report.representatives],
            }
        )
    else:
        print(f"order {args.n}: {report.count} isomorphism classes")
        print(
            f"nodes explored: {report.stats.nodes}, tables completed: "
            f"{report.stats.tables_completed}, iso rejections: {report.stats.iso_rejections}"
        )
    return 0


def _cmd_verify(args) -> int:
    if args.max < SMALLEST_VERIFIED_ORDER:
        raise _UsageError(
            f"--max {args.max} checks no order; the smallest order of shape "
            f"p^2 or p*q is {SMALLEST_VERIFIED_ORDER}"
        )
    report = verify_theorem(args.max, budget=args.budget)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        print(report.to_text())
    return 0 if report.all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley",
        description="Finite groups as Cayley tables: construct, classify, compare, enumerate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a group and emit its table")
    csub = construct.add_subparsers(dest="what", required=True)
    c_cyc = csub.add_parser("cyclic", help="cyclic group of order n")
    c_cyc.add_argument("n", type=int)
    c_cyc.add_argument("--out")
    c_dir = csub.add_parser("direct", help="direct product of two group files")
    c_dir.add_argument("file_a")
    c_dir.add_argument("file_b")
    c_dir.add_argument("--out")
    c_sdp = csub.add_parser("sdp", help="semidirect product C_q x| C_p, generator acting as r -> r^k")
    c_sdp.add_argument("q", type=int)
    c_sdp.add_argument("p", type=int)
    c_sdp.add_argument("--k", type=int, required=True)
    c_sdp.add_argument("--out")

    p_classify = sub.add_parser("classify", help="classify a group of order p^2 or pq")
    p_classify.add_argument("file")
    p_classify.add_argument("--json", action="store_true")

    p_iso = sub.add_parser("iso", help="decide isomorphism of two group files")
    p_iso.add_argument("file_a")
    p_iso.add_argument("file_b")
    p_iso.add_argument("--json", action="store_true")

    p_aut = sub.add_parser("aut", help="automorphism group order and cyclicity")
    p_aut.add_argument("file")
    p_aut.add_argument("--json", action="store_true")

    p_rec = sub.add_parser("recognize", help="recognize an internal (semi)direct product")
    p_rec.add_argument("file")
    p_rec.add_argument("--n", required=True, help="comma-separated member indices of N")
    p_rec.add_argument("--h", required=True, help="comma-separated member indices of H")
    p_rec.add_argument("--json", action="store_true")

    p_enum = sub.add_parser("enumerate", help="enumerate all groups of an order up to isomorphism")
    p_enum.add_argument("n", type=int)
    p_enum.add_argument("--out", help="directory for representative .cayley files")
    p_enum.add_argument("--budget", type=int, default=None, help="raise the order budget (default 16)")
    p_enum.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="check the classification against the oracle")
    p_verify.add_argument("--max", type=int, required=True)
    p_verify.add_argument("--budget", type=int, default=None)
    p_verify.add_argument("--json", action="store_true")

    return parser


_HANDLERS = {
    "construct": _cmd_construct,
    "classify": _cmd_classify,
    "iso": _cmd_iso,
    "aut": _cmd_aut,
    "recognize": _cmd_recognize,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
}

# Errors from loading an input file are format errors (exit 3), unusable
# arguments and errors from writing an output file are usage errors
# (exit 2), and errors from the requested computation are negative answers
# (exit 1).


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroupError as exc:
        name = type(exc).__name__.removesuffix("Error")
        message = str(exc)
        if isinstance(exc, BudgetExceededError) and exc.needed is not None:
            message = f"{exc.reason}; pass --budget {exc.needed}"
        print(f"error: {name}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
