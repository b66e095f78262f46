"""Command line front end.

Subcommands:

  moments      PT moments (and Schatten sums where the model provides them)
               of a noisy catalog state
  criterion    one entanglement verdict; the exit code is the answer
               (0 = Entangled, 1 = Inconclusive, 2 = error)
  threshold    bisected noise threshold for one criterion
  sweep        threshold tables behind the standard figures (CSV/JSON)
  enumerators  PT-moment weight enumerator tables, counting vs transform
  gleason      exact self-checks of the enumerator transform algebra

Table output is deterministic: fixed column order, a `# schema=1` header,
12 significant digits, "\n" line endings, CSV cells holding commas (klm
labels) double-quoted.  Files are written to a temp path and atomically
renamed, so a failed run leaves nothing behind.
PTML_PRECISION_DIGITS overrides the base working precision of the
analytic models.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction

from .enumerators import (
    ame_fixture_check,
    cw_bruteforce,
    cw_fourier,
)
from .gleason import (
    macwilliams,
    pure_kernel_basis,
    reconstruct_enumerators,
    ttilde,
    type2_kernel_basis,
)
from .pauli import Bipartition, state_catalog
from .spectra import DEFAULT_DIGITS
from .thresholds import (
    CriterionSpec,
    epsilon_max,
    evaluate,
    make_model,
    sweep_fig1,
    sweep_fig2,
)

DENSE_CLI_CAP = 10

EXIT_ENTANGLED = 0
EXIT_INCONCLUSIVE = 1
EXIT_ERROR = 2


@dataclass(frozen=True)
class RunConfig:
    """Validated common options shared by the state-taking subcommands."""

    name: str
    n: int
    bip: Bipartition
    noise_kind: str  # "local" or "global"
    eps: float
    digits: int
    fmt: str
    out: str


def _default_digits() -> int:
    raw = os.environ.get("PTML_PRECISION_DIGITS", "")
    if not raw:
        return DEFAULT_DIGITS
    digits = int(raw)
    if digits < 15:
        raise ValueError("PTML_PRECISION_DIGITS must be at least 15")
    return digits


def _parse_bip(n: int, bip: str, bip_size: int) -> Bipartition:
    if bip:
        qubits = frozenset(int(t) for t in bip.split(","))
        return Bipartition(n, qubits)
    if bip_size is not None:
        if not 1 <= bip_size <= n - 1:
            raise ValueError("--bip-size must lie in 1..n-1")
        return Bipartition(n, frozenset(range(1, bip_size + 1)))
    if n % 2:
        raise ValueError("no default bipartition for odd n; pass --bip")
    return Bipartition(n, frozenset(range(1, n // 2 + 1)))


def _parse_noise(text: str) -> tuple:
    kind, _, raw = text.partition(":")
    if kind not in ("local", "global") or not raw:
        raise ValueError("noise must look like local:0.3 or global:0.3")
    eps = float(raw)
    if not 0 <= eps <= 1:
        raise ValueError("noise rate must lie in [0, 1]")
    return kind, eps


def _config(args) -> RunConfig:
    n = args.n
    if args.state == "ame6":
        n = 6 if n is None else n
    if n is None:
        raise ValueError("--n is required for this state")
    bip = _parse_bip(n, getattr(args, "bip", None),
                     getattr(args, "bip_size", None))
    kind, eps = _parse_noise(getattr(args, "noise", None) or "local:0")
    return RunConfig(args.state, n, bip, kind, eps, _default_digits(),
                     getattr(args, "format", "csv"),
                     getattr(args, "out", None))


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, Fraction)):
        return f"{float(v):.12g}"
    return str(v)


def _render(columns, rows, fmt: str) -> str:
    if fmt == "json":
        payload = {"schema": 1, "columns": list(columns),
                   "rows": [[_fmt_cell(r[c]) for c in columns] for r in rows]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    buf.write("# schema=1\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt_cell(r[c]) for c in columns] for r in rows)
    return buf.getvalue()


def _emit(text: str, out: str):
    if not out:
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
    cfg = _config(args)
    k_max = args.k_max
    if k_max < 1:
        raise ValueError("--k-max must be at least 1")
    # up to the cap the dense model supplies Schatten sums on every cut
    model = make_model(cfg.name, cfg.n, cfg.bip,
                       model="dense" if cfg.n <= DENSE_CLI_CAP else None,
                       noise=cfg.noise_kind, digits=cfg.digits)
    p = model.moments(cfg.eps, k_max)
    rows = [{"k": k, "p_k": float(p.p(k)),
             "ptilde_k": "" if p.schatten is None else float(p.ptilde(k))}
            for k in range(1, k_max + 1)]
    _emit_table(("k", "p_k", "ptilde_k"), rows, cfg.fmt, cfg.out)
    return 0


# -------------------------------------------------------------- criterion


def cmd_criterion(args) -> int:
    cfg = _config(args)
    spec = CriterionSpec.parse(args.name)
    v = evaluate(spec, make_model(cfg.name, cfg.n, cfg.bip,
                                  noise=cfg.noise_kind, digits=cfg.digits),
                 cfg.eps)
    print(f"{v.status} margin={_fmt_cell(float(v.margin))}")
    return EXIT_ENTANGLED if v.entangled else EXIT_INCONCLUSIVE


# -------------------------------------------------------------- threshold


def cmd_threshold(args) -> int:
    cfg = _config(args)
    spec = CriterionSpec.parse(args.criterion)
    model = make_model(cfg.name, cfg.n, cfg.bip, model=args.model,
                       digits=cfg.digits)
    r = epsilon_max(spec, model, tol=args.tol, strict=args.strict)
    print(f"eps_max={r.eps_max:.12g} bracket={r.bracket:.3g} "
          f"iterations={r.iterations} flags={r.flags or '-'} "
          f"criterion={r.criterion} state={r.state}")
    return 0


# ------------------------------------------------------------------ sweep


def _parse_int_list(text: str) -> list:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            a, _, b = part.partition(":")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def cmd_sweep(args) -> int:
    tol = args.tol
    if args.preset == "fig1":
        n_list = _parse_int_list(args.n_list)
        if not n_list:
            raise ValueError("empty n list")
        crits = None
        if args.criteria is not None:
            # a comma followed by a digit continues a klm:k,l,m triple
            labels = [t for t in re.split(r",(?!\s*\d)", args.criteria)
                      if t.strip()]
            if not labels:
                raise ValueError("empty criteria list")
            crits = tuple(CriterionSpec.parse(t) for t in labels)
        rows = sweep_fig1(n_list, criteria=crits, tol=tol)
        columns = ("n", "criterion", "eps_max", "bracket", "flags")
    else:
        m_range = _parse_int_list(args.m_range)
        if not m_range:
            raise ValueError("empty m range")
        cuts = tuple(_parse_int_list(args.cuts))
        if not cuts:
            raise ValueError("empty cut list")
        rows = sweep_fig2(m_range, cut_sizes=cuts, tol=tol)
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
    cfg = _config(args)
    g = state_catalog(cfg.name, cfg.n)
    tables = {}
    if args.method in ("fourier", "both"):
        tables["fourier"] = cw_fourier(g, cfg.bip, args.k)
    if args.method in ("brute", "both"):
        extra = {} if args.budget is None else {"budget": args.budget}
        try:
            tables["brute"] = cw_bruteforce(g, cfg.bip, args.k, **extra)
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
    _emit_table(("w", "c_plus", "c_minus"), rows, cfg.fmt, cfg.out)
    print(f"difference polynomial: {_poly_str(table.difference_poly())}")
    if agreement is not None:
        print(f"agreement: {_fmt_cell(agreement)}")
        if not agreement:
            print("counting and transform tables disagree", file=sys.stderr)
            return EXIT_ERROR
    return 0


# ---------------------------------------------------------------- gleason


def cmd_gleason(args) -> int:
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
    sub.add_argument("--out", default=None)


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
                     choices=("dense", "analytic_spectrum", "enumerator"))
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.add_argument("--strict", action="store_true",
                     help="refuse non-monotone pre-scans")
    sub.set_defaults(fn=cmd_threshold)

    sub = subs.add_parser("sweep", help="threshold tables (figures)")
    sub.add_argument("--preset", required=True, choices=("fig1", "fig2"))
    sub.add_argument("--n-list", default="2,4,6,8,10,12",
                     help="fig1 qubit numbers, e.g. 2,4,6 or 2:12")
    sub.add_argument("--criteria", default=None,
                     help="fig1 criterion labels, comma separated")
    sub.add_argument("--m-range", default="3:30",
                     help="fig2 moment orders, e.g. 3:30 or 3,5,7")
    sub.add_argument("--cuts", default="1,2,3",
                     help="fig2 bipartition sizes")
    sub.add_argument("--tol", type=float, default=1e-9)
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
    sub.add_argument("--budget", type=int, default=None)
    _add_output_opts(sub)
    sub.set_defaults(fn=cmd_enumerators)

    sub = subs.add_parser("gleason",
                          help="transform algebra self-checks")
    sub.add_argument("--n", type=int, required=True)
    sub.set_defaults(fn=cmd_gleason)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
