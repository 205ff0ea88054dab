"""Command-line frontend: sortability queries, enumeration with caching,
basis mining, series expansion, antichain reports, and the invariant suite.

Exit codes: 0 success, 1 a verified property failed (a scientific result,
not a crash), 2 usage or parse errors.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from . import antichain as antichain_mod
from . import machines, series
from .classes import ClassSpec, compute_basis, count_by_length
from .machines import PQS_BASIS_CONJECTURE_LEN, PQS_BASIS_CONJECTURED_COUNT, MachineKind
from .perms import parse

CACHE_FORMAT_VERSION = "1"

ENUMERATE_MAX_LEN = 11
BASIS_MAX_LEN = 10
SERIES_MAX_TERMS = 200
# Longest permutation `sortable` accepts.  No solver recurses, so the
# bound only keeps one call short: the slowest input timed at the bound,
# 2,1,4,3,... on PS, returns in under 0.2 s (README).
SORTABLE_MAX_LEN = 1000

# Schemas for the JSON emitted by each command (draft-07); the test suite
# validates every command's output against these.
SCHEMAS = {
    "sortable": {
        "type": "object",
        "required": ["machine", "permutation", "sortable"],
        "properties": {
            "machine": {"enum": [k.value for k in MachineKind]},
            "permutation": {"type": "string"},
            "sortable": {"type": "boolean"},
            "witness": {"type": "string"},
        },
        "additionalProperties": False,
    },
    "enumerate": {
        "type": "object",
        "required": ["spec", "max_len", "counts"],
        "properties": {
            "spec": {"type": "string"},
            "max_len": {"type": "integer"},
            "counts": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["n", "count"],
                    "properties": {
                        "n": {"type": "integer"},
                        "count": {"type": "integer"},
                    },
                    "additionalProperties": False,
                },
            },
        },
        "additionalProperties": False,
    },
    "basis": {
        "type": "object",
        "required": ["machine", "max_len", "count", "elements"],
        "properties": {
            "machine": {"enum": [k.value for k in MachineKind]},
            "max_len": {"type": "integer"},
            "count": {"type": "integer"},
            "elements": {"type": "array", "items": {"type": "string"}},
        },
        "additionalProperties": False,
    },
    "series": {
        "type": "object",
        "required": ["terms", "method", "coefficients"],
        "properties": {
            "terms": {"type": "integer"},
            "method": {"enum": ["closed", "fixpoint", "both"]},
            "coefficients": {"type": "array", "items": {"type": "integer"}},
            "agreement": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "antichain": {
        "type": "object",
        "required": ["max_k", "passed", "elements", "antichain_pairs_checked", "occurrences"],
        "properties": {
            "max_k": {"type": "integer"},
            "passed": {"type": "boolean"},
            "elements": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["k", "member", "deletions"],
                    "properties": {
                        "k": {"type": "integer"},
                        "member": {"type": "boolean"},
                        "deletions": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "required": ["position", "witness_division"],
                                "properties": {
                                    "position": {"type": "integer"},
                                    "witness_division": {"type": ["string", "null"]},
                                    "unnormalized": {"type": ["string", "null"]},
                                },
                                "additionalProperties": False,
                            },
                        },
                    },
                    "additionalProperties": False,
                },
            },
            "antichain_pairs_checked": {"type": "integer"},
            "comparable_pairs": {"type": "array"},
            "occurrences": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["k", "copies_of_2341"],
                    "properties": {
                        "k": {"type": "integer"},
                        "copies_of_2341": {"type": "integer"},
                    },
                    "additionalProperties": False,
                },
            },
        },
        "additionalProperties": False,
    },
}


class UsageError(Exception):
    pass


def _emit_json(obj, out) -> None:
    out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _spec_from_args(args) -> ClassSpec:
    if args.machine:
        return ClassSpec.from_machine(MachineKind(args.machine))
    patterns = []
    for tok in args.basis.split(","):
        tok = tok.strip()
        if not tok.isdigit():
            raise UsageError(
                f"--basis takes comma-separated digit-form patterns, got {tok!r}"
            )
        patterns.append(parse(tok))
    return ClassSpec.from_basis(patterns)


def _load_cache(path: Path) -> dict:
    if not path.exists():
        return {"format_version": CACHE_FORMAT_VERSION, "counts": {}}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read cache file {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise UsageError(f"cache file {path} is not valid JSON: {exc}") from exc
    version = data.get("format_version") if isinstance(data, dict) else None
    if version != CACHE_FORMAT_VERSION:
        raise UsageError(
            f"cache file {path} has unsupported format-version "
            f"{version!r} (expected {CACHE_FORMAT_VERSION!r})"
        )
    counts = data.setdefault("counts", {})
    if not isinstance(counts, dict):
        raise UsageError(f"cache file {path}: counts must be an object")
    for key, count in counts.items():
        if type(count) is not int or count < 0:
            raise UsageError(
                f"cache file {path}: count {key!r} is not a nonnegative integer"
            )
    return data


def _save_cache(path: Path, cache: dict) -> None:
    # Write a sibling file and rename it over the cache, so that a failed
    # write leaves the old cache whole.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(cache, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_sortable(args, out) -> int:
    kind = MachineKind(args.machine)
    p = parse(args.perm)
    if len(p) > SORTABLE_MAX_LEN:
        raise UsageError(f"permutation length must be at most {SORTABLE_MAX_LEN}, got {len(p)}")
    witness = machines.sorting_witness(kind, p)
    doc = {
        "machine": kind.value,
        "permutation": str(p),
        "sortable": witness is not None,
    }
    if witness is not None:
        doc["witness"] = machines.moves_to_text(witness)
    if args.format == "text":
        tail = f" witness={doc['witness']}" if witness is not None else ""
        out.write(f"{kind.value} {p}: sortable={doc['sortable']}{tail}\n")
    else:
        _emit_json(doc, out)
    return 0


def cmd_enumerate(args, out) -> int:
    if not 1 <= args.max_len <= ENUMERATE_MAX_LEN:
        raise UsageError(f"--max-len must be in 1..{ENUMERATE_MAX_LEN}")
    spec = _spec_from_args(args)
    cache_path = Path(args.cache) if args.cache else None
    cache = _load_cache(cache_path) if cache_path else None
    keys = [f"{spec.fingerprint}:{n}" for n in range(1, args.max_len + 1)]
    cached = cache["counts"] if cache is not None else {}
    missing = [n for n, key in enumerate(keys, start=1) if key not in cached]
    # One walk to the longest missing length counts every shorter one too.
    fresh = count_by_length(spec, missing[-1], jobs=args.jobs) if missing else []
    counts = [
        cached[key] if key in cached else fresh[n - 1]
        for n, key in enumerate(keys, start=1)
    ]
    if cache_path and missing:
        for n in missing:
            cached[keys[n - 1]] = fresh[n - 1]
        try:
            _save_cache(cache_path, cache)
        except OSError as exc:
            raise UsageError(
                f"cannot write cache file {cache_path}: {exc.strerror or exc}"
            ) from exc
    rows = [{"n": n, "count": c} for n, c in enumerate(counts, start=1)]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "count"])
        for row in rows:
            writer.writerow([row["n"], row["count"]])
        out.write(buf.getvalue())
    elif args.format == "text":
        out.write(f"spec: {spec.canonical_text}\n")
        for row in rows:
            out.write(f"n={row['n']} count={row['count']}\n")
    else:
        _emit_json({"spec": spec.canonical_text, "max_len": args.max_len, "counts": rows}, out)
    return 0


def cmd_basis(args, out) -> int:
    kind = MachineKind(args.machine)
    if not 1 <= args.max_len <= BASIS_MAX_LEN:
        raise UsageError(f"--max-len must be in 1..{BASIS_MAX_LEN}")
    elements = compute_basis(ClassSpec.from_machine(kind), args.max_len)
    if (
        kind is MachineKind.PQS
        and args.max_len >= PQS_BASIS_CONJECTURE_LEN
        and len(elements) != PQS_BASIS_CONJECTURED_COUNT
    ):
        sys.stderr.write(
            f"CONJECTURE-MISMATCH: expected {PQS_BASIS_CONJECTURED_COUNT} minimal "
            f"unsortable permutations up to length {args.max_len}, found {len(elements)}\n"
        )
    doc = {
        "machine": kind.value,
        "max_len": args.max_len,
        "count": len(elements),
        "elements": [str(p) for p in elements],
    }
    if args.format == "text":
        out.write(f"count {doc['count']}\n")
        for el in doc["elements"]:
            out.write(el + "\n")
    else:
        _emit_json(doc, out)
    return 0


def cmd_series(args, out) -> int:
    if not 1 <= args.terms <= SERIES_MAX_TERMS:
        raise UsageError(f"--terms must be in 1..{SERIES_MAX_TERMS}")
    doc = {"terms": args.terms, "method": args.method}
    status = 0
    if args.method == "closed":
        coeffs = series.closed_form(args.terms).integer_coefficients()[1:]
    elif args.method == "fixpoint":
        coeffs = series.fixed_point(args.terms).integer_coefficients()[1:]
    else:
        closed = series.closed_form(args.terms)
        fixed = series.fixed_point(args.terms)
        agreement = closed == fixed
        doc["agreement"] = agreement
        coeffs = closed.integer_coefficients()[1:]
        if not agreement:
            status = 1
    doc["coefficients"] = coeffs
    if args.format == "text":
        out.write(",".join(str(c) for c in coeffs) + "\n")
        if "agreement" in doc:
            out.write(f"agreement: {doc['agreement']}\n")
    else:
        _emit_json(doc, out)
    return status


def cmd_antichain(args, out) -> int:
    if not 1 <= args.max_k <= antichain_mod.MAX_ANTICHAIN_K:
        raise UsageError(f"--max-k must be in 1..{antichain_mod.MAX_ANTICHAIN_K}")
    basis_k = min(args.max_k, antichain_mod.MAX_BASIS_ELEMENT_K)
    reports = [antichain_mod.check_basis_element(k) for k in range(1, basis_k + 1)]
    pair_report = antichain_mod.check_antichain(args.max_k)
    passed = pair_report.passed and all(r.passed for r in reports)
    doc = {
        "max_k": args.max_k,
        "passed": passed,
        "elements": [
            {
                "k": r.k,
                "member": r.element_in_class,
                "deletions": [
                    {
                        "position": d.position,
                        "witness_division": None if d.witness is None else str(d.witness),
                        "unnormalized": d.unnormalized,
                    }
                    for d in r.deletions
                ],
            }
            for r in reports
        ],
        "antichain_pairs_checked": pair_report.pairs_checked,
        "comparable_pairs": [list(pair) for pair in pair_report.comparable_pairs],
        "occurrences": [
            {"k": k, "copies_of_2341": c} for k, c in pair_report.occurrence_counts
        ],
    }
    if args.format == "text":
        out.write(f"max_k={args.max_k} passed={passed}\n")
        for r in reports:
            out.write(f"u_{r.k}: member={r.element_in_class} deletions_in_class="
                      f"{sum(d.in_class for d in r.deletions)}/{len(r.deletions)}\n")
        out.write(f"pairs_checked={pair_report.pairs_checked} "
                  f"comparable={list(pair_report.comparable_pairs)}\n")
    else:
        _emit_json(doc, out)
    return 0 if passed else 1


def cmd_verify(args, out) -> int:
    from .verify import run_suite

    ok = run_suite(args.suite, out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popsort",
        description="Sorting machines built from pop stacks, queues and stacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    machine_names = [k.value for k in MachineKind]

    p = sub.add_parser("sortable", help="decide whether a machine sorts a permutation")
    p.add_argument("--machine", required=True, choices=machine_names)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("perm", help="permutation, e.g. 24513 or 2,4,5,1,3")
    p.set_defaults(fn=cmd_sortable)

    p = sub.add_parser("enumerate", help="count sortable/avoiding permutations by length")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--machine", choices=machine_names)
    group.add_argument("--basis", help="comma-separated digit-form patterns, e.g. 2431,3142")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cache", help="JSON cache file for counts")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("basis", help="mine the minimal unsortable permutations")
    p.add_argument("--machine", required=True, choices=machine_names)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("series", help="expand the sortable-count generating function")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--method", choices=["closed", "fixpoint", "both"], default="both")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("antichain", help="verify the infinite-antichain construction")
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(fn=cmd_antichain)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    p.add_argument("--suite", required=True, choices=["fast", "all"])
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "jobs", 1) < 1:
            raise UsageError("--jobs must be >= 1")
        return args.fn(args, out)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
