"""Command-line front end.

Size limits live here and nowhere else: each command checks the size of its
request once, before computing anything, against ``LIMITS`` raised by
``--bound`` (which never lowers a default):

    char-table           rank n                                  20
    sb                   |lambda| (power-sum expansion)          12
    ctilde               cable size r * |colors|                 12
    invariant, lmov,     cable size min(r, k) * |colors|          8
      degree             framing degree max(r, k) * |colors|    100
                         (|mu| for lmov and degree; r = k = 1 for
                         an unlink)

Only these commands take ``--bound``.  A torus link T(rL, kL) equals
T(kL, rL) and is cabled through min(r, k).  The framing degree is the
t-span of the Rosso-Jones framing monomials, and the exponent spans of the
invariant grow with it, so a small color on a large r or k is refused.

``invariant``, ``lmov`` and ``degree`` take exactly one of ``--torus r,k,L``
and ``--unlink L``.  Each command takes only the options it acts on.
``--format`` is taken by the commands that write more than one format:
``lmov`` text, json and csv; ``char-table``, ``sb``, ``ctilde``,
``invariant`` and ``degree`` text and json.  ``verify`` writes text and
takes no ``--format``.  ``--cache-dir`` belongs to ``char-table``, the one
command that reads or writes the character-table cache, and is the cache's
only switch: without it no table is read from or written to disk.  Any
other choice or option is a usage error.

``_write`` writes the result of each command that takes ``--format``, and
``_emit_lines`` every line, to ``--out`` or standard output.  A JSON result
is one record, indented by two spaces, that opens with its schema,
``klmov-v1``, and its kind, the command's name (both from ``_record``), and
then gives its fields:

    char-table    n, labels, classes, values (a row per label, written as
                  each row is made)
    sb            partition, closed, pb_expansion (--closed or --pb alone
                  keeps its own field, as it keeps its own text line)
    ctilde        colors, r, entries
    invariant     link, colors, value
    lmov          link, mu, integral, then entries or a finding
    degree        link, mu, valuation, bound, pass

``lmov`` writes its N table, the ``{(g, beta): n}`` dict of
``lmov.extract_n_table``, as text by ``n_table_text``, as csv rows
``g,beta,N`` or as JSON entries.

Each command executes only the modules it runs: ``characters``,
``partitions`` and ``errors`` load with this module and the other layers on
first use, which matters because with ``PYTHONDONTWRITEBYTECODE`` set every
process compiles each module it executes from source:

    char-table                   none of them
    ctilde                       schur, torus (cabling constants are
                                 integers and fractions: no laurent)
    sb                           laurent, schur
    invariant, lmov, degree      laurent, schur, torus, lmov
    verify                       all

``verify --only NAME`` runs the checks whose names match NAME exactly, or
match it as a shell-style pattern such as ``'ctilde*'``.

Exit codes: 0 success, 1 a conjecture check produced a finding (a
non-integral or non-representable value), 2 usage error or a file that
cannot be read or written (``OSError``, as for ``--out`` or the
``--cache-dir`` of ``char-table``), 3 a resource limit was hit: a size limit
was exceeded (``BoundExceeded``; ``--bound`` raises the limit) or memory ran
out (``MemoryError``), 4 an internal arithmetic error (a ``NotDivisible``
that is not a finding of ``lmov``), 141 standard output was closed before
everything was written (as by ``klmov ... | head``; nothing is printed on
standard error, and 141 is what a shell reports for a process ended by
SIGPIPE).  The error cases print one ``error:`` line on standard error.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain

from . import characters
from .errors import (
    BoundExceeded,
    KlmovError,
    NonIntegerCoefficient,
    NotDivisible,
    NotPolynomial,
    NotZRepresentable,
)
from .partitions import (
    format_partition,
    mp_is_zero,
    mp_norm,
    parse_decimal,
    parse_multipartition,
    parse_partition,
    partitions_of,
)


def _lazy(name):
    """The module klmov.<name>, executed when one of its attributes is first read.

    It is bound on the package, as ``import klmov.<name>`` binds it.  A module
    already imported is returned as it is: a fresh copy would give its
    classes a second identity.
    """
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[full]


# bmw and rmatrix have no command: verify runs them, and perfbench's tracer
# wraps the layers registered here
laurent, lmov, schur, torus, verify, bmw, rmatrix = map(
    _lazy, ("laurent", "lmov", "schur", "torus", "verify", "bmw", "rmatrix")
)

SCHEMA = "klmov-v1"

_FINDINGS = (NotDivisible, NotPolynomial, NotZRepresentable, NonIntegerCoefficient)

# command -> {what is measured: default limit}
LIMITS = {
    "char-table": {"rank": 20},
    "sb": {"partition size": 12},
    "ctilde": {"cable size": 12},
    "invariant": {"cable size": 8, "framing degree": 100},
    "lmov": {"cable size": 8, "framing degree": 100},
    "degree": {"cable size": 8, "framing degree": 100},
}


def rationalqt_to_json(x):
    return {
        "num": [[a, b, str(Fraction(c))] for (a, b), c in sorted(x.num.items())],
        "den": [[a, str(Fraction(c))] for a, c in sorted(x.den.items())],
    }


def _record(args, fields):
    """A command's JSON record: the schema, the command's name as its kind,
    then fields."""
    return {"schema": SCHEMA, "kind": args.command, **fields}


def _write(args, fields, text, csv=None):
    """Write a command's result in its --format: fields as one indented JSON
    record, or the lines of csv where the command gives them, or of text."""
    if args.format == "json":
        import json  # only JSON output loads it

        text = (json.dumps(_record(args, fields), indent=2),)
    elif args.format == "csv" and csv is not None:
        text = csv
    _emit_lines(args, text)


def _emit_lines(args, lines):
    """Write each line as it is made, and a newline, to --out or standard output."""
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _check_size(args, what, size):
    """Refuse a request above its command's limit on what, before any
    computation."""
    bound = max(args.bound, LIMITS[args.command][what])
    if size > bound:
        raise BoundExceeded(f"{what} {size} exceeds bound {bound}")


def _check_cable(args, src, colors):
    """Refuse colors on the link src whose cable size min(r, k) * |colors|
    (an unlink is cabled as r = k = 1), then whose framing degree
    max(r, k) * |colors|, is above its limit."""
    r, k = sorted((src.r, src.k)) if isinstance(src, torus.TorusLinkSpec) else (1, 1)
    _check_size(args, "cable size", r * mp_norm(colors))
    _check_size(args, "framing degree", k * mp_norm(colors))


def _parse_mu(args, src):
    """The --mu multi-partition, refused before any computation when zero
    or too large for the link src."""
    mu = parse_multipartition(args.mu)
    if mp_is_zero(mu):
        raise ValueError("needs a nonzero multi-partition")
    _check_cable(args, src, mu)
    return mu


def _parse_source(args):
    if args.torus is None:
        return lmov.UnlinkSpec(args.unlink)
    try:
        r, k, L = map(parse_decimal, args.torus.split(","))
    except ValueError:
        raise KlmovError(f"--torus wants r,k,L, got {args.torus!r}") from None
    return torus.TorusLinkSpec(r, k, L).validate()


def _source_json(src):
    if isinstance(src, torus.TorusLinkSpec):
        return {"torus": [src.r, src.k, src.L]}
    return {"unlink": src.L}


def cmd_char_table(args):
    _check_size(args, "rank", args.n)
    # every call sets it, so that none inherits the last one's
    characters.set_cache_dir(args.cache_dir)
    table = characters.brauer_table(args.n)
    labels = characters.brauer_labels(args.n)
    classes = partitions_of(args.n)
    if args.format == "json":
        import json

        # the bytes of json.dumps(..., indent=2) with "values" filled in, one
        # row per label, written as each row is made
        head = json.dumps(_record(args, {
            "n": args.n,
            "labels": [list(a) for a in labels],
            "classes": [list(m) for m in classes],
            "values": [],
        }), indent=2)
        last = len(labels) - 1
        rows = (
            "    "
            + json.dumps([col[i] for col in table], indent=2).replace("\n", "\n    ")
            + ("," if i < last else "")
            for i in range(len(labels))
        )
        _emit_lines(args, chain((head[:-len("]\n}")],), rows, ("  ]\n}",)))
        return 0
    width = max(len(format_partition(m)) for m in classes) + 2
    head = "chi".ljust(width) + "".join(format_partition(m).rjust(width) for m in classes)
    rows = (
        format_partition(a).ljust(width)
        + "".join(str(col[i]).rjust(width) for col in table)
        for i, a in enumerate(labels)
    )
    _emit_lines(args, chain((head,), rows))
    return 0


def cmd_sb(args):
    lam = parse_partition(args.partition)
    _check_size(args, "partition size", sum(lam))
    # --pb or --closed alone selects its part; neither or both select both
    fields, lines = {"partition": list(lam)}, []
    if args.closed or not args.pb:
        closed = schur.sb_closed_form(lam)
        fields["closed"] = rationalqt_to_json(closed)
        lines.append(f"closed form: {closed}")
    if args.pb or not args.closed:
        pb = schur.pb_in_sb(lam)
        fields["pb_expansion"] = {
            format_partition(mu): str(Fraction(c)) for mu, c in pb.items()
        }
        # the text gives the expansion first
        lines.insert(0, f"pb expansion of {format_partition(lam)}: "
                        f"{schur.render_basis(pb, 'sb')}")
    _write(args, fields, lines)
    return 0


def cmd_ctilde(args):
    colors = parse_multipartition(args.colors)
    _check_size(args, "cable size", args.r * mp_norm(colors))
    table = torus.ctilde(colors, args.r)
    entries = sorted(table.items(), key=lambda kv: (-sum(kv[0]), kv[0]))
    _write(
        args,
        {"colors": [list(a) for a in colors], "r": args.r,
         "entries": [[list(lam), str(Fraction(c))] for lam, c in entries]},
        chain((f"cabling constants for colors {args.colors} at r={args.r}:",),
              (f"  {format_partition(lam):>10} : {c}" for lam, c in entries)),
    )
    return 0


def cmd_invariant(args):
    src = _parse_source(args)
    colors = parse_multipartition(args.colors)
    _check_cable(args, src, colors)
    value = lmov.invariant(src, colors)
    _write(args, {"link": _source_json(src), "colors": [list(a) for a in colors],
                  "value": rationalqt_to_json(value)}, (str(value),))
    return 0


def n_table_text(table):
    """The text lines of an N table {(g, beta): n}: a row per genus g and a
    column per beta, made as they are written."""
    if not table:
        yield "all coefficients vanish"
        return
    rows = {}
    for (g, b), n in sorted(table.items()):
        rows.setdefault(g, {})[b] = n
    betas = sorted({b for _, b in table})
    head = ["g\\beta", *map(str, betas)]
    cells = [[str(g), *(str(row.get(b, 0)) for b in betas)] for g, row in rows.items()]
    # each column as wide as its widest entry, and never under 6; the genus
    # names are right-aligned under a left-aligned header
    widths = [max(6, *map(len, col)) for col in zip(head, *cells)]
    head[0] = head[0].ljust(widths[0])
    for line in (head, *cells):
        yield "  ".join(c.rjust(w) for c, w in zip(line, widths))


def cmd_lmov(args):
    src = _parse_source(args)
    mu = _parse_mu(args, src)
    head = {"link": _source_json(src), "mu": args.mu}
    title = f"{src.describe()} colored {args.mu}"
    try:
        poly = lmov.conjecture_lhs(src, mu, antisymmetrize=not args.no_antisym)
        table = lmov.extract_n_table(poly, mu)
    except _FINDINGS as exc:
        finding = f"{type(exc).__name__}: {exc}"
        _write(args, {**head, "integral": False, "finding": finding},
               (f"FINDING for {title}: {finding}",))
        return 1
    entries = sorted(table.items())
    _write(
        args,
        {**head, "integral": True,
         "entries": [{"g": str(g), "beta": b, "N": n} for (g, b), n in entries]},
        chain((title,), n_table_text(table)),
        csv=chain(("g,beta,N",), (f"{g},{b},{n}" for (g, b), n in entries)),
    )
    return 0


def cmd_degree(args):
    src = _parse_source(args)
    mu = _parse_mu(args, src)
    res = lmov.degree_check(src, mu)
    val = "vacuous (zero)" if res.valuation is None else str(res.valuation)
    _write(args, {"link": _source_json(src), "mu": args.mu, "valuation": res.valuation,
                  "bound": res.bound, "pass": res.passed},
           (f"valuation {val}, bound {res.bound}: {'pass' if res.passed else 'FAIL'}",))
    return 0 if res.passed else 1


def cmd_verify(args):
    results = verify.run_suite(suite=args.suite, only=args.only, seed=args.seed)
    lines = []
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:<28} {detail}")
    passed = sum(1 for _, ok, _ in results if ok)
    lines.append(f"{passed}/{len(results)} checks passed")
    _emit_lines(args, lines)
    return 0 if passed == len(results) else 1


def integer(text):
    """An argparse type for an int written in ASCII decimal digits."""
    return parse_decimal(text)


integer.__name__ = "int"  # argparse's "invalid int value" message


def rank(text):
    n = parse_decimal(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"rank must be nonnegative, got {n}")
    return n


def positive(name):
    """An argparse type for a positive int called name in its error message."""

    def parse(text):
        n = parse_decimal(text)
        if n < 1:
            raise argparse.ArgumentTypeError(f"{name} must be positive, got {n}")
        return n

    parse.__name__ = "positive"  # argparse's "invalid positive value" message
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="klmov",
        description="Exact colored Kauffman polynomials of torus links and the "
        "associated integrality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, formats=("text",)):
        """A subcommand writing the given formats: --format where there is a
        choice, --bound where it has a limit."""
        p = sub.add_parser(name, help=summary)
        if len(formats) > 1:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write output to this file")
        if name in LIMITS:
            p.add_argument("--bound", type=integer, default=0,
                           help="raise the size limit (never lowers the default)")
        p.set_defaults(func=func)
        return p

    def link_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--torus", help="r,k,L for the torus link T(rL,kL)")
        group.add_argument("--unlink", type=positive("L"),
                           help="number of unknot components")

    p = command("char-table", cmd_char_table, "print a character table", ("text", "json"))
    p.add_argument("--n", type=rank, required=True)
    p.add_argument("--cache-dir", help="directory for the character-table cache "
                   "(default: no cache)")

    p = command("sb", cmd_sb, "type-B Schur data for a partition", ("text", "json"))
    p.add_argument("--partition", required=True)
    p.add_argument("--pb", action="store_true", help="only the power-sum expansion")
    p.add_argument("--closed", action="store_true", help="only the closed form")

    p = command("ctilde", cmd_ctilde, "cabling-constant table", ("text", "json"))
    p.add_argument("--colors", required=True)
    p.add_argument("--r", type=positive("r"), required=True)
    # ignored: perfbench's characters jobs pass it; it goes with the cache
    p.add_argument("--cache-dir", help=argparse.SUPPRESS)

    p = command("invariant", cmd_invariant, "colored link invariant", ("text", "json"))
    link_source(p)
    p.add_argument("--colors", required=True)

    p = command("lmov", cmd_lmov, "integer coefficient table", ("text", "json", "csv"))
    link_source(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--no-antisym", action="store_true")

    p = command("degree", cmd_degree, "free-energy degree check", ("text", "json"))
    link_source(p)
    p.add_argument("--mu", required=True)

    p = command("verify", cmd_verify, "run a verification suite")
    p.add_argument("--suite", choices=("paper", "properties", "all"), default="paper")
    p.add_argument("--only", help="run the checks with this name, or matching this "
                   "shell-style pattern (as 'ctilde*')")
    p.add_argument("--seed", type=integer, default=0)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except NotDivisible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # the reader went away: route the interpreter's final flush of the
        # unwritten rest to /dev/null so that it cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, KlmovError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
