"""Command-line front end: build representations, analyze them, run suites.

Exit codes: 0 when the requested property holds (or a build succeeds),
1 when a checked property turns out false (reducible, not uniserial,
classification impossible, suite failures), 2 on usage or input errors,
3 on an internal error: a result that failed its own re-verification.

Scalars on the command line are integers over prime fields and bracketed
ascending coefficient lists over extensions; list-valued flags separate
entries with commas outside brackets.  Polynomial flags take ascending
comma-separated coefficient lists.

A command refuses, with exit 2, an input it does not read: `_BUILDS`
states the flags each build kind requires and may also read, analyze
reads --seed only where it samples (irreducible, series), and a suite
reads only the ranges its entry in heisenmod.suites declares, and --seed
only when that entry draws.

Each command imports only the layers it uses, since start-up is most of a
command's time: heisenmod.modules loads only for the irreducible, series
and uniserial actions, and heisenmod.suites only for the suite command.
No layer loads dataclasses or inspect.  Without a bytecode cache most of
the import is compiling heisenmod's own source, so each line left out of a
command's import path shortens every process.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    AlgebraError,
    SchemaError,
    TooLarge,
    UndecidedIrreducibility,
    VerificationFailed,
)
from .fields import Field, FieldElem, GF, Poly, find_irreducible, make_extension
from .heisenberg import (
    HeisenbergAlgebra,
    ModuleParams,
    build_companion_rep,
    build_D,
    build_M,
    build_restriction_rep,
    build_standard,
    build_V,
    classify,
    invariants,
    validate_rep,
)
from .matrices import Matrix
from .serialize import (
    decode_representation,
    encode_elem,
    encode_invariants,
    encode_matrix,
    encode_params,
    encode_representation,
    encode_series,
    encode_subspace,
)


class UsageError(Exception):
    """Invalid flag combination or unparsable parameter text."""


# -- parameter parsing ---------------------------------------------------------


def _split_outside_brackets(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
            cur.append(ch)
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise UsageError(f"unbalanced brackets in {text!r}")
            cur.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise UsageError(f"unbalanced brackets in {text!r}")
    parts.append("".join(cur))
    return [part.strip() for part in parts]


def _parse_scalar_token(token: str):
    if token.startswith("["):
        if not token.endswith("]"):
            raise UsageError(f"unbalanced brackets in {token!r}")
        inner = token[1:-1].strip()
        if not inner:
            return []
        return [_parse_int(x) for x in inner.split(",")]
    return _parse_int(token)


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise UsageError(f"expected an integer, got {text.strip()!r}") from None


def _elem(field: Field, token: str, what: str) -> FieldElem:
    value = _parse_scalar_token(token)
    try:
        if isinstance(value, int):
            # over an extension a bare integer is taken as an element code
            return field.element(value)
        return field.element(field.code_from_coeffs(value))
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from None


def _elem_list(field: Field, text: str, what: str) -> list[FieldElem]:
    return [
        _elem(field, token, f"{what}[{i}]")
        for i, token in enumerate(_split_outside_brackets(text))
    ]


def _poly(field: Field, text: str, what: str) -> Poly:
    return Poly(field, [e for e in _elem_list(field, text, what)])


def _int_list(text: str) -> list[int]:
    return [_parse_int(tok) for tok in text.split(",")]


# -- build ------------------------------------------------------------------


def _modulus(args) -> Poly:
    """--q as a polynomial over GF(p)."""
    return Poly(GF(args.p), _int_list(args.q))


def _build_field(args) -> Field:
    """The field of the scalar flags: GF(p) for restriction, else that of --q."""
    if args.q is None or args.kind == "restriction":
        return GF(args.p)
    return make_extension(args.p, _modulus(args))


def _alpha_beta(args, field: Field) -> tuple[FieldElem, FieldElem]:
    """--alpha and the one scalar of --betas."""
    betas = _elem_list(field, args.betas, "--betas")
    if len(betas) != 1:
        raise UsageError(f"build {args.kind} takes exactly one beta")
    return _elem(field, args.alpha, "--alpha"), betas[0]


def _build_V(args, field: Field):
    params = ModuleParams(
        _elem(field, args.alpha, "--alpha"),
        _elem_list(field, args.betas, "--betas"),
        _elem_list(field, args.gammas, "--gammas"),
    )
    return build_V(HeisenbergAlgebra(params.n, field), params)


def _build_restriction(args, prime: Field):
    """A module over GF(p) from the extension of --q, or of degree --m."""
    if (args.q is None) == (args.m is None):
        both = "" if args.q is None else ", not both"
        raise UsageError(f"build restriction requires --q or --m{both}")
    q = find_irreducible(args.p, args.m) if args.q is None else _modulus(args)
    return build_restriction_rep(
        args.p, q, [_poly(prime, args.f, "--f")], [_poly(prime, args.g, "--g")]
    )


# kind: (the flags it requires, the flags it may also read besides --p, --q
# and --out, the rank it builds (None where --n sets it or is not read),
# which --n may only repeat, and its builder (args, field))
_BUILDS = {
    "V": ("alpha betas gammas", "n",
          lambda args: len(_split_outside_brackets(args.betas)), _build_V),
    "standard": ("", "n", None, lambda args, field: build_standard(
        HeisenbergAlgebra(1 if args.n is None else args.n, field))),
    "companion": ("alpha betas f", "n", lambda args: 1, lambda args, field:
                  build_companion_rep(*_alpha_beta(args, field), _poly(field, args.f, "--f"))),
    "restriction": ("f g", "m n", lambda args: 1, _build_restriction),
    "M": ("alpha betas", "", None,
          lambda args, field: build_M(args.p, *_alpha_beta(args, field))),
    "D": ("alpha deltas", "", None, lambda args, field: build_D(
        args.p, _elem(field, args.alpha, "--alpha"),
        _elem_list(field, args.deltas, "--deltas"))),
}


def _cmd_build(args) -> tuple[int, str]:
    kind = args.kind
    needs, also, rank, builder = _BUILDS[kind]
    reads = f"command kind p q out {needs} {also}".split()
    unread = [f"--{name}" for name, value in vars(args).items()
              if value is not None and name not in reads]
    if unread:
        raise UsageError(f"build {kind} does not read {', '.join(unread)}")
    missing = [f"--{name}" for name in needs.split() if getattr(args, name) is None]
    if missing:
        raise UsageError(f"build {kind} requires {', '.join(missing)}")
    if rank is not None and args.n not in (None, rank(args)):
        raise UsageError(f"build {kind} builds rank {rank(args)}, not --n {args.n}")
    built = builder(args, _build_field(args))
    encode = encode_matrix if isinstance(built, Matrix) else encode_representation
    return 0, json.dumps(encode(built))


# -- analyze -------------------------------------------------------------------


def _read_representation(args):
    if args.infile is not None:
        with open(args.infile, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    return decode_representation(payload)


def _cmd_analyze(args) -> tuple[int, str]:
    action = args.action
    if args.seed is not None and action not in ("irreducible", "series"):
        raise UsageError(f"analyze {action} does not read --seed")
    rep = _read_representation(args)
    if action == "validate":
        report = validate_rep(rep)
        payload = {
            "ok": report.ok,
            "faithful": report.faithful,
            "z_scalar": (
                encode_elem(report.z_scalar)
                if report.z_scalar is not None
                else None
            ),
            "violations": list(report.violations),
        }
        return (0 if report.ok else 1), json.dumps(payload)
    if action == "classify":
        try:
            params, transform = classify(rep)
        except AlgebraError as exc:
            return 1, json.dumps({"error": str(exc)})
        except VerificationFailed:
            violations = validate_rep(rep).violations  # then a verdict on the input
            if not violations:
                raise
            return 1, json.dumps({"error": f"relations violated: {violations}"})
        payload = {**encode_params(params), "transform": encode_matrix(transform)}
        return 0, json.dumps(payload)
    if action == "invariants":
        try:
            inv = invariants(rep)
        except AlgebraError as exc:
            return 1, json.dumps({"error": str(exc)})
        return 0, json.dumps(encode_invariants(inv))
    from .modules import composition_series, is_irreducible, is_uniserial

    if action == "irreducible":
        result = is_irreducible(rep, seed=args.seed or 0)
        if result.irreducible:
            return 0, json.dumps({"irreducible": True})
        payload = {
            "irreducible": False,
            "submodule": encode_subspace(result.submodule),
        }
        return 1, json.dumps(payload)
    if action == "series":
        series = composition_series(rep, seed=args.seed or 0)
        return 0, json.dumps(encode_series(series))
    answer = is_uniserial(rep)  # the last of the parser's choices
    return (0 if answer else 1), json.dumps({"uniserial": answer})


# -- suite ------------------------------------------------------------------


def _cmd_suite(args) -> tuple[int, str]:
    from .suites import _SUITES, run_suite

    if args.seed is not None and not getattr(_SUITES.get(args.name), "draws", True):
        raise UsageError(f"suite {args.name} does not read --seed")
    ranges = {k: _int_list(v) for k in "pnm" if (v := getattr(args, k)) is not None}
    report = run_suite(args.name, seed=args.seed or 0, jobs=args.jobs, **ranges)
    text = json.dumps(report.to_json()) if args.json else report.render()
    return (0 if report.ok else 1), text


# -- entry points ----------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenmod",
        description="Exact constructions and checks for modular Heisenberg"
                    " representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser(
        "build", help="construct a representation or matrix, emit JSON"
    )
    build.add_argument("kind", choices=list(_BUILDS))
    build.add_argument("--p", type=int, required=True, help="characteristic")
    build.add_argument("--n", type=int, help="rank of standard (default 1);"
                       " V takes it from --betas, companion and restriction build 1")
    build.add_argument("--m", type=int, help="extension degree")
    build.add_argument(
        "--q", help="extension modulus, ascending coefficients"
    )
    build.add_argument("--alpha", help="central scalar")
    build.add_argument(
        "--betas", "--beta", dest="betas", help="comma-separated scalars"
    )
    build.add_argument(
        "--gammas", "--gamma", dest="gammas", help="comma-separated scalars"
    )
    build.add_argument("--deltas", help="comma-separated scalars")
    build.add_argument("--f", help="polynomial, ascending coefficients")
    build.add_argument("--g", help="polynomial, ascending coefficients")
    build.add_argument("--out", help="write output to a file")

    analyze = sub.add_parser(
        "analyze", help="analyze a representation given as JSON"
    )
    analyze.add_argument(
        "action",
        choices=[
            "validate", "classify", "invariants",
            "irreducible", "series", "uniserial",
        ],
    )
    analyze.add_argument(
        "--in", dest="infile", help="read JSON from a file instead of stdin"
    )
    analyze.add_argument("--seed", type=int, help="sampling seed of irreducible"
                         " and series (default 0)")
    analyze.add_argument("--out", help="write output to a file")

    suite = sub.add_parser("suite", help="run a named verification suite")
    suite.add_argument("name")
    suite.add_argument("--p", help="comma-separated primes")
    suite.add_argument("--n", help="comma-separated ranks")
    suite.add_argument("--m", help="comma-separated degrees")
    suite.add_argument("--seed", type=int, help="seed of drawn cases (default 0)")
    suite.add_argument("--jobs", type=int, default=1)
    suite.add_argument("--json", action="store_true", help="emit Report JSON")
    suite.add_argument("--out", help="write output to a file")
    return parser


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "build":
            code, text = _cmd_build(args)
        elif args.command == "analyze":
            code, text = _cmd_analyze(args)
        else:
            code, text = _cmd_suite(args)
    except SchemaError as exc:
        print(f"error at {exc.path}: {exc.message}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UndecidedIrreducibility, TooLarge) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except VerificationFailed as exc:
        print(f"internal error: VerificationFailed: {exc}", file=sys.stderr)
        return 3
    except AlgebraError as exc:
        # build-parameter violations are usage errors at the command line
        if args.command == "build":
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _emit(args, text)
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
