"""Command-line front end: build graphs, compute spectra, run verification.

Exit codes: 0 success, 1 usage or I/O error, 2 verification/tolerance failure
(paper-table mismatches only fail the run under --strict).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import verify as verify_mod
from .errors import FormatError, OutOfRange, SupergraphError, UnsupportedClosedForm
from .graphs import commuting_graph, is_connected, super_graph, twin_canonical_form
from .groups import FiniteGroup, read_cayley_file
from .partitions import Partition, relation_partition
from .polynomials import PolynomialZ, _decimal
from .spectra import Spectrum


@dataclass(frozen=True)
class GroupSpec:
    """Parsed --group argument: family tag plus parameters or a table path."""

    family: str
    params: tuple[int, ...] = ()
    path: str | None = None

    def slug(self) -> str:
        if self.family == "cayley":
            return Path(self.path).stem
        return self.family + "-".join(str(p) for p in self.params)


def parse_group_spec(text: str) -> GroupSpec:
    head, sep, rest = text.partition(":")
    if not sep:
        raise FormatError(
            f'group spec "{text}": expected FAMILY:PARAMS (position {len(text)})'
        )
    family = head.strip()
    if family == "cayley":
        if not rest:
            raise FormatError(f'group spec "{text}": missing table path')
        return GroupSpec("cayley", path=rest)
    if family not in ("D", "Q", "PQ"):
        raise FormatError(
            f'group spec "{text}": unknown family "{family}" (position 0)'
        )
    params = []
    offset = len(head) + 1
    for token in rest.split(","):
        token = token.strip()
        try:
            params.append(int(token))
        except ValueError:
            raise FormatError(
                f'group spec "{text}": invalid integer "{token}" (position {offset})'
            ) from None
        offset += len(token) + 1
    if family == "PQ" and len(params) != 2:
        raise FormatError(f'group spec "{text}": PQ needs exactly two parameters')
    if family in ("D", "Q") and len(params) != 1:
        raise FormatError(f'group spec "{text}": {family} needs exactly one parameter')
    return GroupSpec(family, params=tuple(params))


def build_group(spec: GroupSpec) -> FiniteGroup:
    if spec.family == "cayley":
        return read_cayley_file(spec.path)
    return verify_mod.family_group(spec.family, *spec.params)


def build_partition(group: FiniteGroup, relation: str) -> Partition:
    if not relation.startswith("file:"):
        return relation_partition(group, relation)
    path = relation[len("file:"):]
    try:
        return Partition.from_json(Path(path).read_text())
    except (OSError, ValueError, FormatError) as exc:  # ValueError: not text, or a NUL
        raise FormatError(f"partition file {path}: {exc}") from None


def build_graph(args):
    """--group and --relation as spec, group, partition, commuting graph and super graph."""
    spec = parse_group_spec(args.group)
    group = build_group(spec)
    partition = build_partition(group, args.relation)
    base = commuting_graph(group)
    return spec, group, partition, base, super_graph(base, partition)


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text)


def _dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _render_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    return f"{float(v):.12g}"


def _spectrum_csv(spec: Spectrum) -> str:
    lines = ["value,multiplicity"]
    lines += [f"{_render_value(v)},{m}" for v, m in spec.pairs]
    return "\n".join(lines) + "\n"


def _poly_csv(poly: PolynomialZ) -> str:
    lines = ["degree,coefficient"]
    lines += [f"{d},{_decimal(c)}" for d, c in enumerate(poly.coeffs)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph subcommand

def cmd_graph(args) -> int:
    spec, group, _, _, graph = build_graph(args)

    form = twin_canonical_form(graph)  # before writing: a failure leaves no file
    out_path = args.output or f"{spec.slug()}-{args.relation.replace(':', '_')}.{args.out}"
    if args.out == "json":
        _write_text(out_path, _dump_json(graph.to_json_dict()))
    else:
        _write_text(out_path, graph.to_dot())

    print(f"group {args.group} (order {group.order}); relation {args.relation}")
    connected = "connected" if is_connected(graph) else "disconnected"
    print(f"graph: {graph.n} vertices, {graph.edge_count} edges; {connected}")
    print(f"shape: {form.describe()}; block sizes {tuple(form.sizes)}")
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# spectrum subcommand

def cmd_spectrum(args) -> int:
    spec, _, partition, base, graph = build_graph(args)
    point = verify_mod.SpectralPoint(base, partition, graph, args.matrix)
    try:  # the catalogued claim that --method closed and --compare read
        claim = verify_mod.closed_claim(spec.family, args.relation, args.matrix)
        params = claim.check(claim.point(spec.params))
    except (UnsupportedClosedForm, OutOfRange):
        if args.method == "closed":
            raise
        claim = params = None

    result = claim.spectrum(params) if args.method == "closed" else getattr(point, args.method)
    out_path = args.output or (
        f"{spec.slug()}-{args.relation.replace(':', '_')}-{args.matrix}-{args.method}.{args.out}"
    )
    if isinstance(result, Spectrum):
        text = _dump_json(result.to_json_dict()) if args.out == "json" else _spectrum_csv(result)
        print(f"spectrum ({args.method}): {result}")
    else:
        text = _dump_json(result.to_json_dict()) if args.out == "json" else _poly_csv(result)
        print(f"characteristic polynomial ({args.method}): {result}")
    _write_text(out_path, text)
    print(f"wrote {out_path}")

    if not args.compare:
        return 0
    ok = True
    for label, problem in point.checks(claim, params):  # the checks verify judges
        print(f"compare: {label}: {'agree' if problem is None else 'DISAGREE'}")
        ok = ok and problem is None
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# verify subcommand

def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise FormatError(f'range "{text}": expected LO..HI')
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise FormatError(f'range "{text}": bounds must be integers') from None
    if lo > hi:
        raise FormatError(f'range "{text}": LO must not exceed HI')
    return lo, hi


def _parse_pq(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise FormatError(f'pq pair "{text}": expected P,Q')
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f'pq pair "{text}": values must be integers') from None


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise FormatError(f'jobs "{args.jobs}": expected an integer >= 1')
    reports = verify_mod.run_suite(
        args.suite,
        jobs=args.jobs,
        family=args.family,
        odd_n=_parse_range(args.odd_n) if args.odd_n else None,
        n_range=_parse_range(args.n) if args.n else None,
        m_range=_parse_range(args.m) if args.m else None,
        pq_pairs=[_parse_pq(t) for t in args.pq] if args.pq else None,
        trials=args.trials,
        seed=args.seed,
    )
    print(verify_mod.format_report_table(reports))
    counts = verify_mod.summarize(reports)
    if args.report:
        payload = {
            "suite": args.suite,
            "seed": args.seed,
            "reports": [r.to_json_dict() for r in reports],
            "summary": counts,
        }
        _write_text(args.report, _dump_json(payload))
        print(f"wrote {args.report}")
    if counts["mismatch"] > 0:
        return 2
    if args.strict and counts["paper_table"] > 0:
        return 2
    return 0


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="supergraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    group_help = "D:n | Q:n | PQ:p,q | cayley:path"
    relation_help = "conjugacy | order | none | file:PATH"
    g = sub.add_parser("graph", help="build and export a (super) commuting graph")
    g.add_argument("--group", required=True, help=group_help)
    g.add_argument("--relation", default="none", help=relation_help)
    g.add_argument("--out", choices=("json", "dot"), default="json")
    g.add_argument("--output", help="output path (default: derived)")
    g.set_defaults(func=cmd_graph)

    s = sub.add_parser("spectrum", help="compute a spectrum or characteristic polynomial")
    s.add_argument("--group", required=True, help=group_help)
    s.add_argument("--relation", default="none", help=relation_help)
    s.add_argument("--matrix", choices=("adjacency", "laplacian"), default="adjacency")
    s.add_argument(
        "--method", choices=("jacobi", "exact", "quotient", "closed"), default="jacobi"
    )
    s.add_argument("--out", choices=("json", "csv"), default="json")
    s.add_argument("--output", help="output path (default: derived)")
    s.add_argument(
        "--compare", action="store_true",
        help="run all applicable methods and report agreement",
    )
    s.set_defaults(func=cmd_spectrum)

    v = sub.add_parser("verify", help="run a claim verification suite")
    v.add_argument(
        "--suite", default="all",
        choices=("all", "4.1", "4.2", "4.3", "4.4", "4.5", "generic"),
    )
    v.add_argument("--family", choices=("D", "Q", "PQ", "Dc"))
    v.add_argument("--odd-n", dest="odd_n", help="odd parameter range LO..HI")
    v.add_argument("--n", help="structure parameter range LO..HI")
    v.add_argument("--m", help="Dc parameter range LO..HI")
    v.add_argument("--pq", action="append", help="prime pair P,Q (repeatable)")
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--strict", action="store_true",
                   help="count paper-table mismatches as failures")
    v.add_argument("--report", help="write the JSON report to this path")
    v.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per task (default: 1)")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SupergraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
