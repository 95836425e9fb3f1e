"""Command-line front end.

Subcommands: enumerate, classify, poset, verify, stats.  All output is
deterministic: identical flags give byte-identical bytes for any --jobs
value.  Exit codes: 0 success, 1 check failure, 2 usage error.  Every usage
error is one `error:` line on stderr, printed by `main` alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from ._parallel import ordered_map
from .core import (
    Clan,
    ClanError,
    count_clans,
    dimension,
    enumerate_clans,
    format_clan,
    is_closed,
    parse_clan,
)
from .patterns import classify, is_rationally_smooth, verdict_json
from .poset import PosetSizeError, build_poset, export_dot, export_tsv
from .verify import report_lines, run_checks

VERIFY_MAX_N = 8
#: `enumerate` and `stats` refuse signatures with more clans than this;
#: (6,6) has 845,691.
ENUMERATE_MAX_CLANS = 1_000_000
#: `enumerate`, `stats` and `classify` refuse clans longer than this.  The
#: work per clan grows with its length, and below this length `count_clans`
#: is cheap and its result is short.
MAX_CLAN_LENGTH = 32


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clans",
        description="Clans, the orbit closure order, and smoothness of orbit "
        "closures in the flag variety for U(p,q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_signature(p: argparse.ArgumentParser) -> None:
        p.add_argument("--p", type=_nonnegative, required=True, help="plus-side signature")
        p.add_argument("--q", type=_nonnegative, required=True, help="minus-side signature")

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    def add_common(p: argparse.ArgumentParser) -> None:
        add_out(p)
        p.add_argument(
            "--jobs",
            type=_nonnegative,
            default=1,
            help="worker count for per-clan work; 0 = all cores (output is identical either way)",
        )

    enum = sub.add_parser("enumerate", help="list all clans with dimension and smoothness")
    add_signature(enum)
    enum.add_argument("--format", choices=("tsv", "json"), default="tsv")
    add_common(enum)
    enum.set_defaults(func=cmd_enumerate)

    cls = sub.add_parser("classify", help="smoothness verdict for one clan, as JSON")
    add_signature(cls)
    cls.add_argument("--clan", required=True, metavar="TEXT", help='e.g. "1,+,-,1"')
    add_out(cls)
    cls.set_defaults(func=cmd_classify)

    pos = sub.add_parser("poset", help="closure order as a DOT diagram or TSV dump")
    add_signature(pos)
    pos.add_argument("--format", choices=("dot", "tsv"), default="dot")
    add_common(pos)
    pos.set_defaults(func=cmd_poset)

    ver = sub.add_parser("verify", help="exhaustive self-checks up to a size cap")
    ver.add_argument(
        "--max-n",
        type=_nonnegative,
        default=6,
        help=f"check all signatures with p+q up to this value (max {VERIFY_MAX_N})",
    )
    add_common(ver)
    ver.set_defaults(func=cmd_verify)

    sts = sub.add_parser("stats", help="clan totals and the dimension histogram")
    add_signature(sts)
    sts.add_argument("--format", choices=("tsv", "json"), default="tsv")
    add_common(sts)
    sts.set_defaults(func=cmd_stats)

    return parser


class _UsageError(Exception):
    """A refused input: a bound exceeded or an --out file that cannot be written."""


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as sink:
            sink.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {out}: {exc.strerror or exc}") from None


def _check_size(p: int, q: int, census: bool) -> None:
    """Refuse, before any work, clans too long or, for a census, too many."""
    if p + q > MAX_CLAN_LENGTH:
        raise _UsageError(f"p+q={p + q} exceeds the clan length bound {MAX_CLAN_LENGTH}")
    if census and (total := count_clans(p, q)) > ENUMERATE_MAX_CLANS:
        raise _UsageError(f"({p},{q}) has {total} clans, above the bound {ENUMERATE_MAX_CLANS}")


def _census(args: argparse.Namespace) -> tuple[list[Clan], list[bool]]:
    """The clans of (p, q) and their smoothness verdicts."""
    _check_size(args.p, args.q, census=True)
    clans = enumerate_clans(args.p, args.q)
    return clans, ordered_map(is_rationally_smooth, clans, args.jobs)


def cmd_enumerate(args: argparse.Namespace) -> int:
    keys = ("clan", "dim", "closed", "rationally_smooth")
    rows = ((format_clan(c), dimension(c), is_closed(c), ok) for c, ok in zip(*_census(args)))
    if args.format == "json":
        text = json.dumps([dict(zip(keys, row)) for row in rows], indent=2)
    else:
        lines = ["\t".join(keys)]
        lines.extend(
            f"{clan}\t{dim}\t{'true' if closed else 'false'}\t{'true' if ok else 'false'}"
            for clan, dim, closed, ok in rows
        )
        text = "\n".join(lines)
    _emit(text + "\n", args.out)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    _check_size(args.p, args.q, census=False)
    clan = parse_clan(args.clan, args.p, args.q)
    verdict = classify(clan)
    _emit(json.dumps(verdict_json(verdict), indent=2) + "\n", args.out)
    return 0


def cmd_poset(args: argparse.Namespace) -> int:
    poset = build_poset(args.p, args.q, jobs=args.jobs)
    text = export_dot(poset) if args.format == "dot" else export_tsv(poset)
    _emit(text, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n > VERIFY_MAX_N:
        raise _UsageError(f"--max-n {args.max_n} exceeds the bound {VERIFY_MAX_N}")
    results, statistic = run_checks(max_n=args.max_n, jobs=args.jobs)
    _emit("\n".join(report_lines(results, statistic)) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 1


def cmd_stats(args: argparse.Namespace) -> int:
    clans, smooth = _census(args)
    histogram = Counter(dimension(c) for c in clans)
    total = len(clans)
    closed = sum(1 for c in clans if is_closed(c))
    smooth_count = sum(1 for ok in smooth if ok)
    if args.format == "json":
        doc = {
            "clans": total,
            "closed": closed,
            "smooth": smooth_count,
            "singular": total - smooth_count,
            "dimension_histogram": {str(d): histogram[d] for d in sorted(histogram)},
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [
            f"clans\t{total}",
            f"closed\t{closed}",
            f"smooth\t{smooth_count}",
            f"singular\t{total - smooth_count}",
        ]
        for d in sorted(histogram):
            lines.append(f"dim_{d}\t{histogram[d]}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ClanError, PosetSizeError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
