"""Command-line surface.

Exit codes: 0 success, 1 a verification or predicate failed, 2
malformed input, 3 an internal error in fcplx.  Input is checked where
it is parsed and loaded (and where a command hands it to an entry point
that states conditions on it), and fails there as an InputError; any
other ValueError is a fault in fcplx.  All numeric output is
exact (`p/q` in lowest terms), identical between text and --json modes.
The only environment knob is FCPLX_CACHE_DIR: when set, `check` drops
its suite reports there.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .rationals import fmt_scalar, parse_scalar
from .complexes import (
    FilteredChainMap,
    _directives,
    complex_to_text,
    cone,
    map_to_text,
    parse_complex,
    parse_map,
    shift_complex,
    translate,
)
from .barcodes import (
    Barcode,
    barcode,
    barcode_to_text,
    boundary_depth,
    bottleneck,
    is_r_acyclic,
)
from .tpc import (
    TriangleWitness,
    WeightedTriangle,
    is_r_isomorphism,
    octahedron,
    rotate,
    spectral_invariant,
    verify_triangle,
)
from .fragmentation import (
    EMPTY_FAMILY,
    delta_exact_small,
    delta_upper,
    parse_family,
    prop51_pipeline,
)
from .verify import SUITES, GenConfig, run_suite


class InputError(Exception):
    pass


def _read(path, parse):
    """parse(text, load) of the file at `path`, where load reads a
    complex file named relative to it.  A failed read, and a ValueError
    from parse, become an InputError that names the file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        return parse(text, lambda name: _read_complex(path.parent / name))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _valid(obj, what):
    """obj, or a ValueError naming its invariant violations."""
    problems = obj.validate()
    if problems:
        raise ValueError(f"invalid {what}: " + "; ".join(problems))
    return obj


def _read_complex(path):
    return _read(path,
                 lambda text, load: _valid(parse_complex(text), "complex"))


def _read_map(path):
    return _read(path,
                 lambda text, load: _valid(parse_map(text, load), "map"))


def _given(fn, *args):
    """fn(*args) on input from the command line, where a ValueError
    means the input breaks a condition fn states on it."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _bar_json(B: Barcode):
    return [
        {
            "degree": b.degree,
            "lo": fmt_scalar(b.lo),
            "hi": fmt_scalar(b.hi),
        }
        for b in B.bars
    ]


def _emit(args, text, payload):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


# ----------------------------------------------------------------------
# triangle bundles


_BUNDLE_OPERANDS = {"weight": 1, "complex": 2, "map": 1, "end": 0}


def _parse_bundle(path_str):
    """Bundle format: `weight <r>`, `complex A|B|C <file>` lines, then
    `map u|v|w|phi|psi` blocks of `f <src> <tgt>...` lines closed by
    `end`.  phi and psi are anchored at the cone of u (generators of
    the translated part are named `t.<id>`)."""
    return _read(path_str,
                 lambda text, load: _bundle(path_str, text, load))


def _bundle(path_str, text, load):
    weight = None
    objects = {}
    blocks = {}
    current = None
    for lineno, parts in _directives(text):
        n = len(parts) - 1
        if (parts[0] == "f" and not n
                or n != _BUNDLE_OPERANDS.get(parts[0], n)):
            raise InputError(f"{path_str}:{lineno}: wrong operand count "
                             f"for {parts[0]}")
        if current is not None:
            if parts[0] == "end":
                current = None
            elif parts[0] == "f":
                blocks[current].setdefault(parts[1], []).extend(parts[2:])
            else:
                raise InputError(
                    f"{path_str}:{lineno}: expected f/end in map block"
                )
            continue
        if parts[0] == "weight":
            try:
                weight = parse_scalar(parts[1])
            except ValueError as exc:
                raise InputError(f"{path_str}:{lineno}: {exc}")
        elif parts[0] == "complex":
            if parts[1] not in ("A", "B", "C"):
                raise InputError(f"{path_str}:{lineno}: complex A|B|C file")
            objects[parts[1]] = load(parts[2])
        elif parts[0] == "map":
            if parts[1] not in ("u", "v", "w", "phi", "psi"):
                raise InputError(f"{path_str}:{lineno}: unknown map name")
            blocks[parts[1]] = {}
            current = parts[1]
        else:
            raise InputError(f"{path_str}:{lineno}: unknown directive")
    missing = {"A", "B", "C"} - set(objects)
    if weight is None or missing or {"u", "v", "w", "phi", "psi"} - set(
        blocks
    ):
        raise InputError(f"{path_str}: incomplete bundle")
    A, B, C = objects["A"], objects["B"], objects["C"]
    try:
        u = FilteredChainMap.from_pairs(A, B, blocks["u"])
        v = FilteredChainMap.from_pairs(B, C, blocks["v"])
        wt = shift_complex(translate(A), -weight)
        w = FilteredChainMap.from_pairs(C, wt, blocks["w"])
        K = cone(u, 0)
        phi = FilteredChainMap.from_pairs(K, C, blocks["phi"])
        psi = FilteredChainMap.from_pairs(
            shift_complex(C, weight), K, blocks["psi"]
        )
    except KeyError as exc:
        raise InputError(f"unknown generator {exc.args[0]!r}")
    for name, m in zip(("u", "v", "w", "phi", "psi"), (u, v, w, phi, psi)):
        _valid(m, f"map {name}")
    tri = WeightedTriangle(A, B, C, u, v, w, weight)
    wit = TriangleWitness(K, phi, psi)
    return tri, wit


def _map_block(name, f):
    # the f lines of the map file format, under a bundle block header
    body = map_to_text(f).splitlines()[1:]
    return "\n".join([f"map {name}", *body, "end"])


def _triangle_report(tri, ok, failures):
    lines = [f"weight {fmt_scalar(tri.weight)}",
             f"verified {'true' if ok else 'false'}"]
    if failures:
        lines.append("failed " + " ".join(failures))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# subcommands


def cmd_barcode(args):
    B = barcode(_read_complex(args.file))
    _emit(args, barcode_to_text(B), {"bars": _bar_json(B)})
    return 0


def cmd_depth(args):
    X = _read_complex(args.file)
    d = boundary_depth(X)
    _emit(args, fmt_scalar(d), {"depth": fmt_scalar(d)})
    return 0


def cmd_acyclic(args):
    X = _read_complex(args.file)
    r = _given(parse_scalar, args.r)
    ok = _given(is_r_acyclic, X, r)
    _emit(args, "true" if ok else "false",
          {"acyclic": ok, "r": fmt_scalar(r)})
    return 0 if ok else 1


def cmd_bottleneck(args):
    B1 = barcode(_read_complex(args.a))
    B2 = barcode(_read_complex(args.b))
    rule = "double" if args.standard_bottleneck else "half"
    val, wit = bottleneck(B1, B2, rule=rule)
    _emit(args, fmt_scalar(val), {
        "bottleneck": fmt_scalar(val),
        "rule": rule,
        "matched": len(wit.matched),
        "short_left": len(wit.short1),
        "short_right": len(wit.short2),
    })
    return 0


def cmd_cone(args):
    f = _read_map(args.mapfile)
    lam = (_given(parse_scalar, args.lam) if args.lam is not None
           else Fraction(0))
    K = _given(cone, f, lam)
    B = barcode(K)
    _emit(args, complex_to_text(K), {
        "complex": complex_to_text(K),
        "bars": _bar_json(B),
    })
    return 0


def cmd_riso(args):
    f = _read_map(args.mapfile)
    r = _given(parse_scalar, args.r)
    ok = _given(is_r_isomorphism, f, r)
    _emit(args, "true" if ok else "false",
          {"r_isomorphism": ok, "r": fmt_scalar(r)})
    return 0 if ok else 1


def cmd_sigma(args):
    val = _given(spectral_invariant, _read_map(args.mapfile))
    _emit(args, fmt_scalar(val), {"sigma": fmt_scalar(val)})
    return 0


def cmd_verify_triangle(args):
    tri, wit = _parse_bundle(args.bundle)
    ok, failures = verify_triangle(tri, wit)
    _emit(args, _triangle_report(tri, ok, failures), {
        "verified": ok,
        "weight": fmt_scalar(tri.weight),
        "failed_clauses": failures,
    })
    return 0 if ok else 1


def cmd_rotate(args):
    tri, wit = _parse_bundle(args.bundle)
    ok, failures = verify_triangle(tri, wit)
    if not ok:
        _emit(args, "input triangle failed verification: "
              + " ".join(failures), {"verified": False,
                                     "failed_clauses": failures})
        return 1
    rt, rw = rotate(tri, wit)
    rok, rfail = verify_triangle(rt, rw)
    text = _triangle_report(rt, rok, rfail)
    text += "\n".join(
        _map_block(name, m)
        for name, m in (("u", rt.u), ("v", rt.v), ("w", rt.w))
    ) + "\n"
    _emit(args, text, {
        "weight": fmt_scalar(rt.weight),
        "verified": rok,
        "failed_clauses": rfail,
    })
    return 0 if rok else 1


def cmd_octahedron(args):
    t1, w1 = _parse_bundle(args.b1)
    t2, w2 = _parse_bundle(args.b2)
    res = _given(octahedron, t1, w1, t2, w2)
    ok3, f3 = verify_triangle(res.d3, res.wit3)
    ok4, f4 = verify_triangle(res.d4, res.wit4)
    text = (
        f"first weight {fmt_scalar(res.d3.weight)} verified "
        f"{'true' if ok3 else 'false'}\n"
        f"second weight {fmt_scalar(res.d4.weight)} verified "
        f"{'true' if ok4 else 'false'}\n"
    )
    _emit(args, text, {
        "first_weight": fmt_scalar(res.d3.weight),
        "second_weight": fmt_scalar(res.d4.weight),
        "first_verified": ok3,
        "second_verified": ok4,
        "failed_clauses": f3 + f4,
    })
    return 0 if ok3 and ok4 else 1


def cmd_frag(args):
    X = _read_complex(args.a)
    Y = _read_complex(args.b)
    family = EMPTY_FAMILY
    if args.family:
        family = _read(args.family, parse_family)
    d1, _ = delta_upper(X, Y, family)
    d2, _ = delta_upper(Y, X, family)
    d = max(d1, d2)
    payload = {
        "delta_forward": fmt_scalar(d1),
        "delta_backward": fmt_scalar(d2),
        "d_frag_upper": fmt_scalar(d),
    }
    text = (
        f"delta(X,Y) <= {fmt_scalar(d1)}\n"
        f"delta(Y,X) <= {fmt_scalar(d2)}\n"
        f"d_frag <= {fmt_scalar(d)}\n"
    )
    if args.exact:
        val, note = delta_exact_small(
            X, Y, family, depth_budget=args.depth,
            weight_budget=_given(parse_scalar, args.budget),
        )
        payload["oracle"] = fmt_scalar(val)
        payload["oracle_note"] = note
        text += f"oracle delta(X,Y) = {fmt_scalar(val)} ({note})\n"
    _emit(args, text, payload)
    return 0


def cmd_prop51(args):
    X = _read_complex(args.a)
    Y = _read_complex(args.b)
    bound, D, tau, cap = prop51_pipeline(X, Y)
    payload = {
        "bound": fmt_scalar(bound),
        "d_bot": fmt_scalar(tau),
        "constant": cap,
        "steps": len(D.steps) if D is not None else 0,
    }
    text = (
        f"bound {fmt_scalar(bound)}\n"
        f"d_bot {fmt_scalar(tau)}\n"
        f"constant {cap}\n"
    )
    _emit(args, text, payload)
    return 0


def cmd_check(args):
    names = list(SUITES) if args.suite in (None, "all") else [args.suite]
    for name in names:
        if name not in SUITES:
            raise InputError(f"unknown suite {name!r}")
    cfg = GenConfig(seed=args.seed)
    reports = []
    for name in names:
        reports.append(run_suite(name, cfg, args.trials))
    cache_dir = os.environ.get("FCPLX_CACHE_DIR")
    if cache_dir:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        for rep in reports:
            out = Path(cache_dir) / f"{rep.suite}.report"
            out.write_text(rep.to_text())
    ok = all(rep.ok for rep in reports)
    text = "".join(rep.to_text() for rep in reports)
    _emit(args, text, {"reports": [rep.to_json() for rep in reports],
                       "ok": ok})
    if any(rep.fault for rep in reports):
        return 3  # an internal fault, not a failed claim
    return 0 if ok else 1


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="structured output with stable keys")
    p = argparse.ArgumentParser(
        prog="fcplx",
        description="Barcodes, weighted triangles and fragmentation "
        "distances for filtered complexes over GF(2).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("barcode", parents=[common],
                       help="barcode of a complex file")
    s.add_argument("file")

    s = sub.add_parser("depth", parents=[common],
                       help="boundary depth of a complex")
    s.add_argument("file")

    s = sub.add_parser("acyclic", parents=[common],
                       help="test r-acyclicity")
    s.add_argument("file")
    s.add_argument("--r", required=True)

    s = sub.add_parser("bottleneck", parents=[common],
                       help="bottleneck distance of two complexes")
    s.add_argument("a")
    s.add_argument("b")
    s.add_argument("--standard-bottleneck", action="store_true",
                   help="use the common short-bar rule (length <= 2*tau)")

    s = sub.add_parser("cone", parents=[common],
                       help="mapping cone of a map file")
    s.add_argument("mapfile")
    s.add_argument("--lambda", dest="lam", default=None)

    s = sub.add_parser("riso", parents=[common],
                       help="test whether a map is an r-isomorphism")
    s.add_argument("mapfile")
    s.add_argument("--r", required=True)

    s = sub.add_parser("sigma", parents=[common],
                       help="spectral invariant of a map")
    s.add_argument("mapfile")

    s = sub.add_parser("verify-triangle", parents=[common],
                       help="verify a triangle bundle")
    s.add_argument("bundle")

    s = sub.add_parser("rotate", parents=[common],
                       help="rotate a triangle bundle")
    s.add_argument("bundle")

    s = sub.add_parser("octahedron", parents=[common],
                       help="octahedron of two bundles")
    s.add_argument("b1")
    s.add_argument("b2")

    s = sub.add_parser("frag", parents=[common],
                       help="fragmentation distance bounds")
    s.add_argument("a")
    s.add_argument("b")
    s.add_argument("--family", default=None)
    s.add_argument("--exact", action="store_true")
    s.add_argument("--depth", type=int, default=3)
    s.add_argument("--budget", default="100")

    s = sub.add_parser("prop51", parents=[common],
                       help="bottleneck-driven distance bound")
    s.add_argument("a")
    s.add_argument("b")

    s = sub.add_parser("check", parents=[common],
                       help="run verification suites")
    s.add_argument("--suite", default="all")
    s.add_argument("--seed", type=int, default=0,
                   help="seed of the suites' generators")
    s.add_argument("--trials", type=int, default=50,
                   help="trials per suite")

    return p


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # looked up per call: the parser outlives any one binding
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault in fcplx itself, kept apart from "predicate failed" (1)
        msg = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        print(f"internal error: {msg}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
