"""Batch command-line front end.

One verb per module operation family, each parsing only the flags it reads;
deterministic output (byte-identical for identical inputs), exact rationals
serialized as ``p/q`` throughout.  Exit codes, each error with one stderr
line: 0 success, 1 domain error, 2 I/O or parse error (a bad command line too).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import correspondence as corr
from . import invariants as inv
from . import ranking as rank_ops
from .errors import DomainError, SchemaError
from .local_model import LocalModel
from .pair_model import FormalPairModel, RelativeData, load_data
from .rationals import (
    Rational,
    _parse_int,
    floor_frac,
    format_rational,
    gen_factorial,
    parse_rational,
)

# Operation families each verb calls, directly or through a private kernel (tested).
VERB_OPERATIONS = {
    "sectors": ["isotropy_group", "sector_index_set", "sector_support", "degree_shift", "d_top"],
    "degshift": ["degree_shift", "tau"],
    "rank": ["lambda_value", "lambda_preimages", "rk_pair", "sector_dim", "c_to_Rd", "rk_tilde"],
    "dims": ["window", "moduli_dim", "moduli_dim_oracle", "c_bounds", "tau"],
    "invariant": [
        "relative_invariant",
        "h_prime_oracle",
        "localization_sum",
        "gen_factorial",
        "floor_frac",
    ],
    "correspond": ["psi_forward", "psi_inverse", "n_minimal_companion"],
    "order": ["comparison_matrix", "order_from_matrix"],
    "assemble": [
        "linear_extension", "assemble_L", "h_invariant",
        "precedes", "find_precedence_witness", "glue", "default_coeff_rule",
    ],
    "solve": ["solve_lower_triangular"],
}


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_model(args) -> LocalModel:
    if not args.model:
        raise DomainError("this command needs --model")
    return LocalModel.from_json(_load_json(args.model))


def _load_pair_model(args) -> FormalPairModel:
    if not args.pair_model:
        raise DomainError("this command needs --pair-model")
    return FormalPairModel.from_json(_load_json(args.pair_model))


def _load_data_list(path) -> list[RelativeData]:
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise SchemaError("expected a JSON array of relative data documents")
    return [RelativeData.from_json(d) for d in doc]


def _indent2_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


#: Encodes one flat batch entry with its keys sorted and one per line at the
#: depth of ``{"results": [...]}``.  Without ``indent``, ``json`` runs its C
#: encoder; with ``indent=2`` it runs the pure-Python one.
_ENTRY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def _batch_json(doc) -> str:
    """``_indent2_json(doc)`` for ``doc = {"results": entries}``, each entry a
    non-empty dict of strings and ints."""
    entries = [_ENTRY_ENCODER.encode(e)[1:-1] for e in doc["results"]]
    if not entries:
        return '{\n  "results": []\n}'
    body = "\n    },\n    {\n      ".join(entries)
    return '{\n  "results": [\n    {\n      ' + body + "\n    }\n  ]\n}"


def _cell(value) -> str:
    if not isinstance(value, list):
        return str(value)
    return (";" if value and isinstance(value[0], list) else ",").join(map(_cell, value))


def _table(header, records):
    """TSV rows: ``header``, then each record's fields in header order.  A list
    field is joined with ``,``, a list of lists with ``;`` between its rows."""
    return [header] + [[_cell(record[field]) for field in header] for record in records]


def _emit(args, doc, tsv_rows, to_json=_indent2_json):
    if args.format == "json":
        text = to_json(doc) + "\n"
    else:
        text = "\n".join("\t".join(row) for row in tsv_rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_sectors(args):
    model = _load_model(args)
    sectors = []
    for delta in model.sector_index_set():
        phase = format_rational(delta.R)
        shift = format_rational(model.degree_shift(delta.b, delta.R))
        support = sorted(model.sector_support(delta))
        sectors.append({"b": delta.b, "phase": phase, "degshift": shift, "support": support})
    doc = {"d_top": model.d_top(), "n": model.n, "sectors": sectors}
    _emit(args, doc, _table(["b", "phase", "degshift", "support"], sectors))


def _cmd_degshift(args):
    model = _load_model(args)
    if args.R is None:
        raise DomainError("degshift needs --R")
    R = parse_rational(args.R)
    b = args.b if args.b is not None else 1 % model.r
    doc = {"b": b, "R": format_rational(R), "degshift": format_rational(model.degree_shift(b, R))}
    doc["tau"] = [format_rational(model.tau(R, u)) for u in range(1, model.n + 1)]
    _emit(args, doc, _table(list(doc), [doc]))


def _cmd_rank(args):
    model = _load_model(args)
    if args.c is not None:
        R, d = rank_ops.c_to_Rd(model, args.c)
        doc = {"c": args.c, "R": format_rational(R), "d": d, "rank": rank_ops.rk_tilde(model, R, d)}
    elif args.R is not None:
        R = parse_rational(args.R)
        strict, weak = rank_ops.rk_pair(model, R)
        pre = rank_ops.lambda_preimages(model, R)
        for j, a in pre:
            if rank_ops.lambda_value(model, j, a) != R:
                raise AssertionError("preimage does not evaluate back to its label")
        doc = {
            "R": format_rational(R),
            "rk_strict": strict,
            "rk_weak": weak,
            "sector_dim": rank_ops.sector_dim(model, R),
            "preimages": [[j, a] for j, a in pre],
        }
    else:
        raise DomainError("rank needs --R or --c")
    _emit(args, doc, _table(list(doc), [doc]))


def _cmd_dims(args):
    model = _load_model(args)
    if args.k is not None:
        entries = []
        for R, mult in rank_ops.window(model, args.k):
            dim = rank_ops.moduli_dim(model, R)
            oracle = rank_ops.moduli_dim_oracle(model, R)
            label = format_rational(R)
            entries.append({"R": label, "multiplicity": mult, "dim": dim, "dim_oracle": oracle})
        doc = {"k": args.k, "window": entries}
        rows = _table(["R", "multiplicity", "dim", "dim_oracle"], entries)
    elif args.R is not None:
        R = parse_rational(args.R)
        c_min, c_max = rank_ops.c_bounds(model, R)
        doc = {
            "R": format_rational(R),
            "dim": rank_ops.moduli_dim(model, R),
            "dim_oracle": rank_ops.moduli_dim_oracle(model, R),
            "c_min": [format_rational(c) for c in c_min],
            "c_max": [format_rational(c) for c in c_max],
            "tau": [format_rational(model.tau(R, u)) for u in range(1, model.n + 1)],
        }
        rows = _table(["R", "dim", "dim_oracle", "c_min", "c_max"], [doc])
    else:
        raise DomainError("dims needs --R or --k")
    _emit(args, doc, rows)


def _invariant_entry(model, c, i, j, d, factorials):
    """One relative entry; ``factorials`` maps ``(beta_u, C_u)`` to the
    reduced ``gen_factorial(C_u / r, m_u)`` of ``model``, filled as needed."""
    label, d, h, value = inv._ranked_invariant(model, inv.ProperInsertionPair(c=c, i=i, j=j, d=d))
    R, taus, tau_den, _ = label
    h_prime = inv._h_prime_of_label(model, label, d)
    rfloor, rfrac = floor_frac(R)
    # c_max_factorial: prod_u gfact(c_max_u, c_max_u - c_min_u), with the bounds
    # C_u / r from the contact-bound kernel and c_min_u = beta_u / r; the
    # factorials are multiplied as integers and reduced once
    r, num, den = model.r, 1, 1
    for b, C in zip(model.beta, rank_ops._contact_numerators(model, taus, tau_den)):
        fact = factorials.get((b, C))
        if fact is None:
            fact = factorials[b, C] = gen_factorial(Rational(C, r), (C - b) // r)
        num *= fact.numerator
        den *= fact.denominator
    return {
        "c": c,
        "i": i,
        "j": j,
        "R": format_rational(R),
        "R_floor": rfloor,
        "R_frac": format_rational(rfrac),
        "d": d,
        "h": format_rational(h),
        "h_prime": format_rational(h_prime),
        "c_max_factorial": format_rational(Rational(num, den)),
        "value": format_rational(value),
    }


def _cmd_invariant(args):
    model = _load_model(args) if args.model else None
    if args.data:
        queries = _load_json(args.data)
        if not isinstance(queries, list):
            raise SchemaError("batch queries must be a JSON array")
        rows = [["index", "kind", "value", "detail"]]
        entries = []
        factorials = {}  # of the --model model, for this batch only
        for idx, q in enumerate(queries):
            if not isinstance(q, dict):
                raise SchemaError(f"batch query {idx} must be a JSON object, got {q!r}")
            localization = "lambdas" in q
            try:
                if localization:
                    if not isinstance(q["lambdas"], list):
                        raise TypeError(f"lambdas must be an array, got {q['lambdas']!r}")
                    lams = [parse_rational(x) for x in q["lambdas"]]
                    d = _parse_int(q["d"])
                else:
                    c, i, j = _parse_int(q["c"]), _parse_int(q["i"]), _parse_int(q["j"])
                    d = None if q.get("d") is None else _parse_int(q["d"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"malformed batch query {idx}: {exc}") from exc
            if localization:
                value = inv.localization_sum(lams, d)
                entry = {"kind": "localization", "d": d, "value": format_rational(value)}
                detail = f"m={len(lams)},d={d}"
            else:
                qmodel = LocalModel.from_json(q["model"]) if "model" in q else model
                if qmodel is None:
                    raise DomainError("query needs an inline model or --model")
                entry = _invariant_entry(qmodel, c, i, j, d, factorials if qmodel is model else {})
                entry["kind"] = "relative"
                detail = f"c={entry['c']},R={entry['R']},d={entry['d']}"
            entries.append(entry)
            rows.append([str(idx), entry["kind"], entry["value"], detail])
        _emit(args, {"results": entries}, rows, _batch_json)
        return
    if args.c is None or args.i is None or args.j is None:
        raise DomainError("invariant needs --c, --i, --j (or --data for batch mode)")
    entry = _invariant_entry(model or _load_model(args), args.c, args.i, args.j, args.d, {})
    _emit(args, entry, [[entry["value"]]])


def _cmd_correspond(args):
    model = _load_pair_model(args)
    if not args.data:
        raise DomainError("correspond needs --data")
    datum = load_data(_load_json(args.data))
    # only the last column differs: the image components' field of that name
    if isinstance(datum, RelativeData):
        image = corr.psi_forward(model, datum)
        companion = corr.n_minimal_companion(datum)
        doc = {"direction": "forward", "image": image.to_json(), "companion": companion.to_json()}
        last, cell = "s_markings", lambda m: f"{m.sector}:{m.j}:{m.psi}"
    else:
        image = corr.psi_inverse(model, datum)
        doc = {"direction": "inverse", "image": image.to_json()}
        last, cell = "relative", lambda m: f"{m.sector}:{format_rational(m.contact)}:{m.j}:{m.ell}"
    rows = [["component", "genus", "class", "absolute", last]]
    for idx, comp in enumerate(image.components):
        rows.append(
            [
                str(idx),
                str(comp.genus),
                ",".join(format_rational(c) for c in comp.cls),
                ";".join(f"{m.sector}:{m.insertion}:{m.psi}" for m in comp.absolute),
                ";".join(map(cell, getattr(comp, last))),
            ]
        )
    _emit(args, doc, rows)


def _cmd_order(args):
    model = _load_pair_model(args)
    if not args.data:
        raise DomainError("order needs --data")
    data = _load_data_list(args.data)
    strict = corr.comparison_matrix(model, data, max_components=args.max_components)
    order = corr.order_from_matrix(data, strict)
    doc = {"order": order, "strict_comparable_pairs": sum(map(sum, strict))}
    rows = [["position", "input_index"]]
    rows += [[str(pos), str(idx)] for pos, idx in enumerate(order)]
    _emit(args, doc, rows)


def _cmd_assemble(args):
    model = _load_pair_model(args)
    if not args.data:
        raise DomainError("assemble needs --data")
    data = _load_data_list(args.data)
    order = corr.linear_extension_order(model, data, max_components=args.max_components)
    basis = [data[i] for i in order]
    offdiag = {}
    if args.offdiag:
        entries = _load_json(args.offdiag)
        if not isinstance(entries, list):
            raise SchemaError("offdiag must be a JSON array of [row, col, value] triples")
        position = {input_idx: pos for pos, input_idx in enumerate(order)}
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise SchemaError(f"offdiag entry {entry!r} is not a [row, col, value] triple")
            row_in, col_in, value = entry
            try:
                key = (position[_parse_int(row_in)], position[_parse_int(col_in)])
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(
                    f"offdiag entry {entry!r}: row and col must be input indices"
                ) from exc
            if key in offdiag:
                raise SchemaError(f"offdiag entry {entry!r} repeats an earlier row and col")
            offdiag[key] = parse_rational(value)
    rule = corr.default_coeff_rule if args.coeff == "product" else (lambda rd: Rational(1))
    L = corr.assemble_L(
        model, basis, offdiag=offdiag, coeff_rule=rule, max_components=args.max_components
    )
    matrix = [[format_rational(x) for x in row] for row in L]
    doc = {"order": order, "matrix": matrix}
    rows = [["order", " ".join(map(str, order))]]
    rows += [[f"row{i}"] + matrix[i] for i in range(len(matrix))]
    _emit(args, doc, rows)


def _cmd_solve(args):
    if not args.matrix or not args.vector:
        raise DomainError("solve needs --matrix and --vector")
    matrix, vector = _load_json(args.matrix), _load_json(args.vector)
    if not (isinstance(matrix, list) and all(isinstance(row, list) for row in matrix)):
        raise SchemaError("matrix must be a JSON array of arrays")
    if not isinstance(vector, list):
        raise SchemaError("vector must be a JSON array")
    L = [[parse_rational(x) for x in row] for row in matrix]
    v = [parse_rational(x) for x in vector]
    x = corr.solve_lower_triangular(L, v)
    doc = {"solution": [format_rational(value) for value in x]}
    _emit(args, doc, [[value] for value in doc["solution"]])


#: Every flag of the command line, with its ``add_argument`` keywords.
_FLAGS = {
    "--model": {"help": "local model JSON file"},
    "--pair-model": {"help": "pair model JSON file"},
    "--data": {"help": "data JSON file (single datum, list, or batch queries)"},
    "--matrix": {"help": "matrix JSON file (arrays of p/q strings)"},
    "--vector": {"help": "vector JSON file (array of p/q strings)"},
    "--offdiag": {"help": "off-diagonal entries JSON file ([row, col, value])"},
    "--c": {"type": int, "help": "descendent power"},
    "--R": {"help": "fiber-class label (p/q)"},
    "--d": {"type": int, "help": "H-power"},
    "--i": {"type": int, "help": "basis index at the origin marking"},
    "--j": {"type": int, "help": "basis index at the divisor marking"},
    "--k": {"type": int, "help": "window index"},
    "--b": {"type": int, "help": "sector b-component (degshift)"},
    "--coeff": {"choices": ["product", "one"], "default": "product"},
    "--max-components": {"type": int, "default": corr.DEFAULT_MAX_COMPONENTS},
    "--format": {"choices": ["tsv", "json"], "default": "tsv"},
    "--out": {"help": "output path (default: stdout)"},
}

#: Each verb's handler and the flags it reads besides ``--format`` and ``--out``.
_VERBS = {
    "sectors": (_cmd_sectors, "--model"),
    "degshift": (_cmd_degshift, "--model --R --b"),
    "rank": (_cmd_rank, "--model --R --c"),
    "dims": (_cmd_dims, "--model --R --k"),
    "invariant": (_cmd_invariant, "--model --data --c --i --j --d"),
    "correspond": (_cmd_correspond, "--pair-model --data"),
    "order": (_cmd_order, "--pair-model --data --max-components"),
    "assemble": (_cmd_assemble, "--pair-model --data --offdiag --coeff --max-components"),
    "solve": (_cmd_solve, "--matrix --vector"),
}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ``SchemaError``, not a usage dump."""

    def error(self, message):
        raise SchemaError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared for the process."""
    parser = _Parser(prog="wbcorr", description="Exact weighted-blowup correspondence computations.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, flags) in _VERBS.items():
        p = sub.add_parser(verb, allow_abbrev=False)  # so --d never reads as --data
        for flag in f"{flags} --format --out".split():
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _VERBS[args.verb][0](args)
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
