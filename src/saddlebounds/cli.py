"""Command-line front end.

Subcommands: ``generate`` (write problem manifests), ``analyze`` (bounds,
spectra, containment verdicts), ``solve`` (preconditioned MINRES), and
``plotdata`` (eigenvalue/bound CSV series from saved reports).

Exit codes: 0 on success with all verdicts passing, 1 on runtime errors or
non-convergence, 2 on validation or containment failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as sbio
from .errors import ParameterError, SaddleBoundsError, StructuralError
from .problems import (
    distributed_context,
    poisson_boundary,
    poisson_distributed,
    random_system,
    tightness_lower_positive,
    tightness_upper_negative,
)
from .report import AnalysisReport, analyze, plot_rows, solve, solve_rows
from .spectral import BlockExtremes

DEFAULT_RANDOM_EXTREMES = BlockExtremes(
    mu_min_a=0.5, mu_max_a=4.0,
    sigma_min_b=0.3, sigma_max_b=2.0,
    sigma_min_c=0.2, sigma_max_c=1.5,
    mu_min_d=0.0, mu_max_d=0.8,
    mu_min_e=0.0, mu_max_e=0.6,
)


def _parse_numbers(text: str, kind, flag: str, count: int) -> tuple:
    """``count`` comma-separated numbers of type ``kind`` given to ``flag``."""
    try:
        values = tuple(kind(v) for v in text.split(","))
    except ValueError:
        values = ()
    if len(values) != count:
        raise ParameterError(f"{flag} wants {count} comma-separated numbers, got {text!r}")
    return values


def _build_problem(args):
    """Return (system, context, problem-info) from the problem flags."""
    kind = args.problem
    if kind.startswith("manifest:"):
        path = kind.split(":", 1)[1]
        return sbio.load_manifest(path), None, {"kind": "manifest", "path": path}
    if kind == "poisson-dist":
        system, fem = poisson_distributed(args.h, args.beta)
        info = {"kind": "poisson-dist", "h": args.h, "beta": args.beta,
                "ordering": "flipped"}
        return system, distributed_context(fem, args.beta), info
    if kind == "poisson-bnd":
        system = poisson_boundary(args.h, args.beta)
        return system, None, {"kind": "poisson-bnd", "h": args.h, "beta": args.beta}
    if kind == "random":
        n, m, p = _parse_numbers(args.dims, int, "--dims", 3)
        extremes = DEFAULT_RANDOM_EXTREMES
        if args.unregularized:
            extremes = extremes.without_regularization()
        system = random_system(n, m, p, args.seed, extremes)
        info = {"kind": "random", "dims": [n, m, p], "seed": args.seed,
                "unregularized": bool(args.unregularized)}
        return system, None, info
    if kind == "tight-neg":
        params = _parse_numbers(args.params, float, "--params", 5)
        return tightness_upper_negative(*params), None, {
            "kind": "tight-neg", "params": list(params)}
    if kind == "tight-pos":
        params = _parse_numbers(args.params, float, "--params", 5)
        return tightness_lower_positive(*params), None, {
            "kind": "tight-pos", "params": list(params)}
    raise ParameterError(f"unknown problem {kind!r}")


def _resolve_user_blocks(precond: str):
    if precond.startswith("user:"):
        return "user", sbio.load_spd_blocks(precond.split(":", 1)[1])
    return precond, None


def _write_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--problem",
        required=True,
        help="poisson-dist | poisson-bnd | random | tight-neg | tight-pos "
        "| manifest:<path>",
    )
    parser.add_argument("--h", type=float, default=0.0625, help="mesh width 1/N")
    parser.add_argument("--beta", type=float, default=1e-3,
                        help="control regularization weight")
    parser.add_argument("--dims", default="8,6,4", help="n,m,p for random problems")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--params", default="1,1,1,1,1",
                        help="five scalars for the tightness fixtures")
    parser.add_argument("--unregularized", action="store_true",
                        help="zero both regularization blocks (random problems)")


def cmd_generate(args) -> int:
    system, _, info = _build_problem(args)
    out_dir = args.out or f"problem-{info['kind']}"
    manifest = sbio.save_manifest(
        system, out_dir, name=args.name, inline=args.inline
    )
    print(manifest)
    return 0


def cmd_analyze(args) -> int:
    system, context, info = _build_problem(args)
    precond, user_blocks = _resolve_user_blocks(args.precond)
    scenarios = tuple(s for s in args.scenario.split(",") if s)
    report = analyze(
        system,
        scenarios=scenarios,
        precond=precond,
        context=context,
        user_blocks=user_blocks,
        tol=args.tol,
        problem=info,
    )
    if args.format == "json":
        _write_text(report.to_json(), args.out)
    else:
        _write_text("\n".join(plot_rows([report])) + "\n", args.out)
    return 0 if report.passed else 2


def cmd_solve(args) -> int:
    system, context, info = _build_problem(args)
    precond, user_blocks = _resolve_user_blocks(args.precond)
    data = solve(
        system,
        precond=precond,
        rtol=args.rtol,
        maxit=args.maxit,
        context=context,
        user_blocks=user_blocks,
        problem=info,
    )
    import json

    if args.format == "json":
        _write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write_text("\n".join(solve_rows(data)) + "\n", args.out)
    if args.residuals:
        Path(args.residuals).write_text("\n".join(solve_rows(data)) + "\n")
    return 0 if data["converged"] else 1


def _load_report(path: str) -> AnalysisReport:
    try:
        return AnalysisReport.from_json(Path(path).read_text())
    except (ValueError, KeyError, TypeError) as exc:
        raise StructuralError(f"{path} is not an analysis report ({exc})") from exc


def cmd_plotdata(args) -> int:
    reports = [_load_report(p) for p in args.reports]
    for path, report in zip(args.reports, reports):
        entry = report.scenarios[0] if report.scenarios else None
        has_spectrum = report.spectrum or (entry and entry.get("spectrum"))
        if not has_spectrum:
            raise ParameterError(f"report {path} carries no spectrum to plot")
    rows = plot_rows(reports, scenario=args.scenario)
    _write_text("\n".join(rows) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlebounds",
        description="Eigenvalue bounds and Schur-complement preconditioner "
        "analysis for double saddle-point systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a problem to disk as a manifest")
    _add_problem_flags(gen)
    gen.add_argument("--out", help="output directory")
    gen.add_argument("--name", default="system", help="manifest base name")
    gen.add_argument("--inline", action="store_true",
                     help="embed dense blocks in the manifest JSON")
    gen.set_defaults(func=cmd_generate)

    ana = sub.add_parser("analyze", help="compute bounds and verify containment")
    _add_problem_flags(ana)
    ana.add_argument("--scenario", default="unprec",
                     help="comma list of unprec,prec-exact,prec-inexact")
    ana.add_argument("--precond", default="jacobi",
                     help="none|exact|jacobi|pearson-wathen|drop-term|"
                     "scaled:<t>|user:<path>")
    ana.add_argument("--tol", type=float, default=1e-9,
                     help="relative containment slack")
    ana.add_argument("--out", help="write the report here instead of stdout")
    ana.add_argument("--format", choices=("json", "csv"), default="json")
    ana.set_defaults(func=cmd_analyze)

    sol = sub.add_parser("solve", help="run preconditioned MINRES")
    _add_problem_flags(sol)
    sol.add_argument("--precond", default="none")
    sol.add_argument("--rtol", type=float, default=1e-8)
    sol.add_argument("--maxit", type=int, default=None)
    sol.add_argument("--out", help="write the solve report here")
    sol.add_argument("--residuals", help="also write residual history CSV here")
    sol.add_argument("--format", choices=("json", "csv"), default="json")
    sol.set_defaults(func=cmd_solve)

    plot = sub.add_parser("plotdata", help="CSV eigenvalue series from reports")
    plot.add_argument("reports", nargs="*", help="analysis report JSON files")
    plot.add_argument("--scenario", default=None,
                      help="scenario to plot (default: first in each report)")
    plot.add_argument("--out")
    plot.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SaddleBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
