"""Command-line front end.

Subcommands: enumerate, classify, poset, verify, stats.  All output is
deterministic: identical flags give byte-identical bytes.  All work runs in
one process; ``--jobs`` is accepted and validated, and changes nothing.
Exit codes: 0 success, 1 check failure, 2 usage error or a poset build
refused by the engine.  Each of those is one `error:` line on stderr,
printed by `main` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from .core import (
    MINUS,
    PLUS,
    Clan,
    ClanError,
    canonicalize,
    count_clans,
    dimension,
    enumerate_clans,
    format_clan,
    is_closed,
    parse_clan,
)
from .patterns import classify, is_rationally_smooth, verdict_json
from .poset import (
    POSET_MAX_N,
    NonIncreasingMoveError,
    PosetSizeError,
    _MissingElementError,
    build_poset,
    export_dot,
    export_tsv,
)
from .verify import report_lines, run_checks

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
        description="Clans, the move order inside their closure order, and "
        "smoothness of orbit closures in the flag variety for U(p,q).",
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
            help="accepted for compatibility and changes nothing: all work runs in one process",
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

    pos = sub.add_parser("poset", help="the move order's Hasse diagram as DOT or a TSV dump")
    add_signature(pos)
    pos.add_argument("--format", choices=("dot", "tsv"), default="dot")
    add_common(pos)
    pos.set_defaults(func=cmd_poset)

    ver = sub.add_parser("verify", help="exhaustive self-checks up to a size cap")
    ver.add_argument(
        "--max-n",
        type=_nonnegative,
        default=6,
        help=f"check all signatures with p+q up to this value (max {POSET_MAX_N})",
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
    """A refused input: a bound exceeded or an output that cannot be written."""


def _emit(text: str, out: str | None) -> None:
    try:
        if out is not None:
            with open(out, "w") as sink:
                sink.write(text)
        elif sys.stdout is None:  # the process started with stdout closed
            raise _UsageError("cannot write stdout: it is closed")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()  # a full device fails here, not in the exit-time flush
    except OSError as exc:
        if out is None:  # the exit-time flush would retry the kept bytes and fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = "stdout" if out is None else out
        raise _UsageError(f"cannot write {where}: {exc.strerror or exc}") from None


def _check_size(p: int, q: int, census: bool) -> None:
    """Refuse, before any work, clans too long or, for a census, too many."""
    if p + q > MAX_CLAN_LENGTH:
        raise _UsageError(f"p+q={p + q} exceeds the clan length bound {MAX_CLAN_LENGTH}")
    if census and (total := count_clans(p, q)) > ENUMERATE_MAX_CLANS:
        raise _UsageError(f"({p},{q}) has {total} clans, above the bound {ENUMERATE_MAX_CLANS}")


_SWAPPED = {PLUS: MINUS, MINUS: PLUS}


def _sign_swap(entries: tuple) -> tuple:
    return tuple([_SWAPPED.get(e, e) for e in entries])


def _census(args: argparse.Namespace) -> tuple[list[Clan], list[bool], list[int]]:
    """The clans of (p, q), their smoothness verdicts and their dimensions.

    A clan, its reversal and, when p = q, the sign swaps of both share a
    verdict (see :mod:`clans.patterns`) and a dimension: reversal maps the
    pairs (i, j) to (n+1-j, n+1-i), keeping their lengths and crossings, and
    the sign swap keeps the pairs.  So only the first of each such class in
    token order is classified and measured.  The sign swap leaves the pair
    numbering alone, so it needs no renumbering.
    """
    _check_size(args.p, args.q, census=True)
    clans = enumerate_clans(args.p, args.q)
    pending: dict[tuple, int] = {}  # a classified clan's class member -> its slot
    firsts: list[Clan] = []
    slots = []
    for c in clans:
        slot = pending.pop(c.entries, None)
        if slot is None:
            slot = len(firsts)
            firsts.append(c)
            mirror = canonicalize(reversed(c.entries)).entries
            pending[mirror] = slot
            if args.p == args.q:
                pending[_sign_swap(c.entries)] = pending[_sign_swap(mirror)] = slot
        slots.append(slot)
    verdicts = [is_rationally_smooth(c) for c in firsts]
    dims = [dimension(c) for c in firsts]
    return clans, [verdicts[slot] for slot in slots], [dims[slot] for slot in slots]


def cmd_enumerate(args: argparse.Namespace) -> int:
    keys = ("clan", "dim", "closed", "rationally_smooth")
    rows = ((format_clan(c), dim, is_closed(c), ok) for c, ok, dim in zip(*_census(args)))
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
    poset = build_poset(args.p, args.q)
    text = export_dot(poset) if args.format == "dot" else export_tsv(poset)
    _emit(text, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results, statistic = run_checks(max_n=args.max_n)
    _emit("\n".join(report_lines(results, statistic)) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 1


def cmd_stats(args: argparse.Namespace) -> int:
    clans, smooth, dims = _census(args)
    histogram = Counter(dims)
    smooth_count = sum(1 for ok in smooth if ok)
    totals = {
        "clans": len(clans),
        "closed": sum(1 for c in clans if is_closed(c)),
        "smooth": smooth_count,
        "singular": len(clans) - smooth_count,
    }
    if args.format == "json":
        totals["dimension_histogram"] = {str(d): histogram[d] for d in sorted(histogram)}
        _emit(json.dumps(totals, indent=2) + "\n", args.out)
    else:
        lines = [f"{name}\t{count}" for name, count in totals.items()]
        lines += [f"dim_{d}\t{histogram[d]}" for d in sorted(histogram)]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    while "--clan" in argv[:-1]:  # argparse reads a value such as "-,+" as a flag
        i = argv.index("--clan")
        argv[i : i + 2] = [f"--clan={argv[i + 1]}"]
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ClanError,
        PosetSizeError,
        NonIncreasingMoveError,
        _MissingElementError,
        _UsageError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
