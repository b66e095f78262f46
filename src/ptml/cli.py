"""Command line front end.

Subcommands:

  moments      PT moments and Schatten sums of a noisy catalog state
  criterion    one entanglement verdict; the exit code is the answer
               (0 = Entangled, 1 = Inconclusive, 2 = error)
  threshold    bisected noise threshold for one criterion
  sweep        threshold tables behind the standard figures (CSV/JSON)
  enumerators  PT-moment weight enumerator tables, counting vs transform
  gleason      exact self-checks of the enumerator transform algebra

Table output is deterministic: fixed column order, a `# schema=1` header,
12 significant digits (an exact moment rounded once), "\n" line endings,
CSV cells holding commas (klm labels) double-quoted.  Files are written to
a temp path and atomically renamed, so a failed run leaves nothing behind.
Every state-taking subcommand builds its model through make_model, the
one dispatch from state, noise and cut; no setting chooses a precision.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
import tempfile
from decimal import MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

from mpmath import mpf
from mpmath.libmp import to_digits_exp, to_rational

from .enumerators import (
    ame_fixture_check,
    cw_bruteforce,
    cw_fourier,
)
from .pauli import Bipartition, state_catalog
from .thresholds import (
    BRACKET_TOL,
    CriterionSpec,
    epsilon_max,
    evaluate,
    make_model,
    sweep_fig1,
    sweep_fig2,
)

EXIT_ENTANGLED = 0
EXIT_INCONCLUSIVE = 1
EXIT_ERROR = 2


def _number(token: str, option: str, kind=int):
    try:
        return kind(token)
    except ValueError:
        raise ValueError(f"{option}: bad {kind.__name__} {token.strip()!r}") from None


def _parse_bip(n: int, bip: str, bip_size: int) -> Bipartition:
    if bip is not None and bip_size is not None:
        raise ValueError("--bip and --bip-size exclude each other")
    if bip is not None:
        qubits = [_number(t, "--bip") for t in bip.split(",")]
        for i, q in enumerate(qubits):
            if q in qubits[:i]:
                raise ValueError(f"--bip repeats qubit {q}")
        return Bipartition(n, frozenset(qubits))
    if bip_size is not None:
        if not 1 <= bip_size <= n - 1:
            raise ValueError("--bip-size must lie in 1..n-1")
        return Bipartition(n, frozenset(range(1, bip_size + 1)))
    return None  # the balanced cut, built by make_model only where needed


def _parse_noise(text: str) -> tuple:
    kind, _, raw = text.partition(":")
    if kind not in ("local", "global") or not raw:
        raise ValueError("noise must look like local:0.3 or global:0.3")
    eps = _number(raw, "--noise", float)
    if not 0 <= eps <= 1:
        raise ValueError("noise rate must lie in [0, 1]")
    return kind, eps


def _state(args) -> tuple:
    """(n, cut) of a state-taking subcommand: n is 6 for ame6 unless
    given, and the cut None for the balanced one."""
    n = 6 if args.n is None and args.state == "ame6" else args.n
    if n is None:
        raise ValueError("--n is required for this state")
    return n, _parse_bip(n, args.bip, args.bip_size)


# no least exponent: a margin far below 1e-999999 keeps its digits
_TWELVE_DIGITS = Context(prec=12, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN)


def _twelve_digits(x) -> Decimal:
    """A Fraction or an mpf rounded once to 12 digits, half to even.  An
    mpf's come from to_digits_exp at 24 digits (error below 1e-20 x), and
    from an exact Decimal division, as a Fraction's, within 1e-6 of a
    last-place unit of a tie."""
    if isinstance(x, mpf):
        sign, digits, exp = to_digits_exp(x._mpf_, 24)
        tail = digits[12:]
        half = 5 * 10 ** (len(tail) - 1)
        if len(tail) >= 6 and abs(int(tail) - half) >= 10 ** (len(tail) - 6):
            head = int(digits[:12]) + (int(tail) > half)
            return Decimal(f"{sign}{head}E{exp - 11}")
        x = Fraction(*to_rational(x._mpf_))
    return _TWELVE_DIGITS.divide(x.numerator, x.denominator)


def _fmt_cell(v) -> str:
    """One table cell; numbers print as 12 significant digits.  An exact
    value is rounded once (_twelve_digits).  A double holds the 12-digit
    result exactly enough to print it back unchanged, in float style;
    below the normal double range the Decimal prints itself, likewise."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (mpf, Fraction)):
        v = _twelve_digits(v)
    if isinstance(v, Decimal) and 0 < v.copy_abs() < sys.float_info.min:
        return f"{v.normalize(_TWELVE_DIGITS):g}"
    if isinstance(v, (float, Decimal)):
        return f"{float(v):.12g}"
    return str(v)


def _render(columns, rows, fmt: str) -> str:
    if fmt == "json":
        payload = {"schema": 1, "columns": list(columns),
                   "rows": [[_fmt_cell(r[c]) for c in columns] for r in rows]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    import csv
    buf = io.StringIO()
    buf.write("# schema=1\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt_cell(r[c]) for c in columns] for r in rows)
    return buf.getvalue()


def _check_out(out: str):
    """Refuse an --out that names no file, before any model is built."""
    if out == "":
        raise ValueError("--out: empty file name")
    if out and os.path.isdir(out):
        raise ValueError(f"--out: {out} is a directory")


def _emit(text: str, out: str):
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ptml-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit_table(columns, rows, fmt: str, out: str):
    if out and out.endswith(".json"):
        fmt = "json"
    _emit(_render(columns, rows, fmt), out)


def _poly_str(coeffs) -> str:
    terms = []
    for w, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if w == 0:
            body = str(mag)
        elif mag == 1:
            body = f"z^{w}"
        else:
            body = f"{mag}z^{w}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms) if terms else "0"


# ---------------------------------------------------------------- moments


def cmd_moments(args) -> int:
    _check_out(args.out)
    n, bip = _state(args)
    kind, eps = _parse_noise(args.noise)
    if args.k_max < 1:
        raise ValueError("--k-max must be at least 1")
    p = make_model(args.state, n, bip, noise=kind).moments(eps, args.k_max)
    rows = [{"k": k, "p_k": p.p(k), "ptilde_k": p.ptilde(k)}
            for k in range(1, args.k_max + 1)]
    _emit_table(("k", "p_k", "ptilde_k"), rows, args.format, args.out)
    return 0


# -------------------------------------------------------------- criterion


def cmd_criterion(args) -> int:
    n, bip = _state(args)
    kind, eps = _parse_noise(args.noise)
    spec = CriterionSpec.parse(args.name)
    v = evaluate(spec, make_model(args.state, n, bip, noise=kind), eps)
    print(f"{v.status} margin={_fmt_cell(v.margin)}")
    return EXIT_ENTANGLED if v.entangled else EXIT_INCONCLUSIVE


# -------------------------------------------------------------- threshold


def cmd_threshold(args) -> int:
    n, bip = _state(args)
    spec = CriterionSpec.parse(args.criterion)
    model = make_model(args.state, n, bip, model=args.model)
    r = epsilon_max(spec, model, tol=args.tol, strict=args.strict)
    print(f"eps_max={r.eps_max:.12g} bracket={r.bracket:.3g} "
          f"iterations={r.iterations} flags={r.flags or '-'} "
          f"criterion={r.criterion} state={r.state}")
    return 0


# ------------------------------------------------------------------ sweep


# each sweep preset's own options and their defaults; the other preset
# refuses them
_SWEEP_OPTIONS = {"fig1": {"--n-list": "2,4,6,8,10,12", "--criteria": None},
                  "fig2": {"--m-range": "3:30", "--cuts": "1,2,3"}}


def _parse_int_list(text: str, option: str) -> list:
    out = []
    for part in filter(None, map(str.strip, text.split(","))):
        a, colon, b = part.partition(":")
        out.extend(range(_number(a, option),
                         _number(b if colon else a, option) + 1))
    if not out:
        raise ValueError(f"{option}: empty list")
    return out


def cmd_sweep(args) -> int:
    _check_out(args.out)
    for preset, options in _SWEEP_OPTIONS.items():
        for option, default in options.items():
            dest = option[2:].replace("-", "_")
            if getattr(args, dest) is None:
                setattr(args, dest, default)
            elif preset != args.preset:
                raise ValueError(f"{option} applies to --preset {preset} only")
    if args.preset == "fig1":
        n_list = _parse_int_list(args.n_list, "--n-list")
        crits = None
        if args.criteria is not None:
            # a comma followed by a digit continues a klm:k,l,m triple
            labels = [t for t in re.split(r",(?!\s*\d)", args.criteria)
                      if t.strip()]
            if not labels:
                raise ValueError("--criteria: empty list")
            crits = tuple(CriterionSpec.parse(t) for t in labels)
        rows = sweep_fig1(n_list, criteria=crits, tol=args.tol)
        columns = ("n", "criterion", "eps_max", "bracket", "flags")
    else:
        m_range = _parse_int_list(args.m_range, "--m-range")
        cuts = tuple(_parse_int_list(args.cuts, "--cuts"))
        if not all(1 <= s <= 5 for s in cuts):
            raise ValueError("--cuts: the cut needs 1 <= |A| <= 5 qubits")
        rows = sweep_fig2(m_range, cut_sizes=cuts, tol=args.tol)
        columns = ("cut", "criterion", "m", "eps_max", "bracket", "flags")
    _emit_table(columns, rows, args.format, args.out)
    return 0


# ------------------------------------------------------------ enumerators


def cmd_enumerators(args) -> int:
    if args.fixtures:
        report = ame_fixture_check()
        for case, ok in sorted(report["cases"].items()):
            print(f"{'PASS' if ok else 'FAIL'} {case}")
        if not report["ok"]:
            for line in report["failures"]:
                print(f"  {line}", file=sys.stderr)
            return 1
        return 0
    if not args.state:
        raise ValueError("--state is required unless --fixtures is given")
    _check_out(args.out)
    n, bip = _state(args)
    g = state_catalog(args.state, n)
    bip = bip or Bipartition.balanced(n)
    tables = {}
    if args.method in ("fourier", "both"):
        tables["fourier"] = cw_fourier(g, bip, args.k)
    if args.method in ("brute", "both"):
        try:
            tables["brute"] = cw_bruteforce(g, bip, args.k)
        except ValueError as exc:
            if "budget" in str(exc):
                raise ValueError(f"{exc}; use --method fourier") from exc
            raise
    table = tables.get("fourier") or tables["brute"]
    agreement = None
    if args.method == "both":
        agreement = (tables["fourier"].cplus == tables["brute"].cplus
                     and tables["fourier"].cminus == tables["brute"].cminus)
    weights = sorted(set(table.cplus) | set(table.cminus))
    rows = [{"w": w, "c_plus": table.cplus.get(w, 0),
             "c_minus": table.cminus.get(w, 0)} for w in weights]
    _emit_table(("w", "c_plus", "c_minus"), rows, args.format, args.out)
    print(f"difference polynomial: {_poly_str(table.difference_poly())}")
    if agreement is not None:
        print(f"agreement: {_fmt_cell(agreement)}")
        if not agreement:
            print("counting and transform tables disagree", file=sys.stderr)
            return EXIT_ERROR
    return 0


# ---------------------------------------------------------------- gleason


def cmd_gleason(args) -> int:
    from .gleason import (macwilliams, pure_kernel_basis,
                          reconstruct_enumerators, ttilde, type2_kernel_basis)
    n = args.n
    checks = []
    m = macwilliams(n)
    checks.append(("involution M^2 = 1", m.mul(m).is_identity()))
    pure = pure_kernel_basis(n)
    ok = (len(pure) == (n + 1 + 1) // 2
          and all(m.apply(v.values) == v.values for v in pure))
    checks.append(("pure fixed-point basis", ok))
    if n % 2 == 0:
        t2 = type2_kernel_basis(n)
        tt = ttilde(n)
        ok = (len(t2) == (n + 6) // 6
              and all(m.apply(v.values) == v.values for v in t2)
              and all(tt.apply(v.values) == v.values for v in t2))
        checks.append(("type-II fixed-point basis", ok))
    if n == 6:
        rec = reconstruct_enumerators({0: Fraction(1, 64), 2: 0}, 6,
                                      type2=True)
        want = tuple(Fraction(c, 64) for c in (1, 0, 0, 0, 45, 0, 18))
        checks.append(("ame reconstruction from 2 entries",
                       rec.values == want))
    failed = False
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        failed = failed or not ok
    return 1 if failed else 0


# ------------------------------------------------------------------ main


def _add_state_opts(sub, noise=True, required=True):
    sub.add_argument("--state", required=required,
                     choices=("ghz", "zero", "bell_pairs", "ame6"))
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--bip", default=None,
                     help="comma-separated qubit list, e.g. 1,2,3")
    sub.add_argument("--bip-size", type=int, default=None,
                     help="shorthand for --bip 1..s")
    if noise:
        sub.add_argument("--noise", default="local:0",
                         help="local:EPS or global:EPS")


def _add_output_opts(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None,
                     help="write the table to this file; a name ending in "
                          ".json writes JSON")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ptml",
        description="moment-based entanglement criteria for noisy "
                    "stabilizer states")
    subs = ap.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("moments", help="PT moments of a noisy state")
    _add_state_opts(sub)
    sub.add_argument("--k-max", type=int, required=True)
    _add_output_opts(sub)
    sub.set_defaults(fn=cmd_moments)

    sub = subs.add_parser("criterion", help="one entanglement verdict")
    sub.add_argument("--name", required=True,
                     help="ppt | p3ppt | stieltjes:M | descartes:M | "
                          "klm:K,L,M | fidelity | purity")
    _add_state_opts(sub)
    sub.set_defaults(fn=cmd_criterion)

    sub = subs.add_parser("threshold", help="bisected noise threshold")
    sub.add_argument("--criterion", required=True)
    _add_state_opts(sub, noise=False)
    sub.add_argument("--model", default=None,
                     choices=("dense", "enumerator"),
                     help="force a reference route (default: by state, noise)")
    sub.add_argument("--tol", type=float, default=BRACKET_TOL)
    sub.add_argument("--strict", action="store_true",
                     help="refuse non-monotone pre-scans")
    sub.set_defaults(fn=cmd_threshold)

    sub = subs.add_parser("sweep", help="threshold tables (figures)")
    sub.add_argument("--preset", required=True, choices=("fig1", "fig2"))
    sub.add_argument("--n-list", help="even fig1 qubit numbers, e.g. 2,4,6 "
                                       "or 14,20 (default 2,4,6,8,10,12)")
    sub.add_argument("--criteria", help="fig1 criterion labels, comma "
                                         "separated (default: the fig1 battery)")
    sub.add_argument("--m-range", help="fig2 moment orders, e.g. 3:30 or "
                                        "3,5,7 (default 3:30)")
    sub.add_argument("--cuts", help="fig2 bipartition sizes, |A| of 6 "
                                     "qubits (default 1,2,3)")
    sub.add_argument("--tol", type=float, default=BRACKET_TOL)
    _add_output_opts(sub)
    sub.set_defaults(fn=cmd_sweep)

    sub = subs.add_parser("enumerators",
                          help="PT-moment weight enumerator tables")
    sub.add_argument("--fixtures", action="store_true",
                     help="run the built-in polynomial fixture checks")
    _add_state_opts(sub, noise=False, required=False)
    sub.add_argument("--k", type=int, default=2)
    sub.add_argument("--method", choices=("brute", "fourier", "both"),
                     default="fourier")
    _add_output_opts(sub)
    sub.set_defaults(fn=cmd_enumerators)

    sub = subs.add_parser("gleason",
                          help="transform algebra self-checks")
    sub.add_argument("--n", type=int, required=True)
    sub.set_defaults(fn=cmd_gleason)

    return ap


# parse_args leaves a parser as it was, so one tree serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
