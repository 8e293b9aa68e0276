"""Command-line entry point wiring file I/O and the computational modules.

Commands: stats, audit, incidence, scan, search.  Every run emits a
machine-readable report (JSON / JSON-lines / TSV, to --output or stdout)
whose header records the seed, the seed-derivation rule, and the precision;
human-readable summaries go to stderr.  Exit codes: 0 success, 1 usage or
parse error, 2 audit FAIL or fixture regression breach.
"""
from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from functools import cache

from .audit import THEOREMS, audit_theorem, theorem_fn
from .errors import AuditFailure, ConvexLabError, ParseError
from .families import ALL_KINDS, growth_scan, scan_to_tsv
from .functions import fn_by_name
from .incidence import TAUS, build_instance, count_incidences, lemma_st1_ratio, lemma_st2_ratio
from .search import SearchConfig, extremal_search
from .seeding import SEED_RULE
from .sets import combination_sizes, format_scalar, read_set_file, write_set_file
from .energy import energy_report

USAGE_ERROR, AUDIT_ERROR = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _header(args, **extra) -> dict:
    """The report header: command, seed 0 unless `extra` sets it, seed rule, precision and `extra`."""
    return {"type": "header", "command": args.command, "seed": 0,
            "seedRule": SEED_RULE, "precision": args.precision, **extra}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", type=int, default=30, help="significant digits in reports")
    p.add_argument("--output", default=None)


def cmd_stats(args) -> int:
    a = read_set_file(args.input)
    report = energy_report(a)  # its delta_A histogram also gives |A-A|
    e15 = report.e15_decimal(args.precision)
    sizes = {"size": len(a), **combination_sizes(a)}
    payload = {
        **_header(args, input=args.input),
        "sizes": sizes,
        "energy": report.to_json_dict(),
        "E15Decimal": e15,
    }
    _emit(args, _dump(payload) + "\n")
    _note(f"|A| = {sizes['size']}  |A+A| = {sizes['sumset']}  |A-A| = {sizes['diffset']}")
    if sizes["prodset"] is not None:
        _note(f"|A*A| = {sizes['prodset']}")
    else:
        _note("|A*A| skipped: set has nonpositive elements")
    _note(f"E = {report.E}  E3 = {report.E3}  E1.5 = {e15}")
    return 0


def _fixture_breaches(fixtures_path: str, key: str, chain) -> list[dict]:
    """The ratios of `chain` that are missing from the fixture entry `key` or 10% or more off it."""
    with open(fixtures_path, encoding="utf-8") as fh:
        stored = json.load(fh).get("chains", {})
    entry = stored.get(key)
    if entry is None:
        return [{"type": "regression", "key": key, "missing": True}]
    breaches = []
    observed = {"finalRatio": chain.final_ratio}
    observed.update({s.name: s.ratio for s in chain.report_only_steps()})
    expected = {"finalRatio": entry["finalRatio"]}
    expected.update(entry.get("steps", {}))
    for name, want in expected.items():
        got = observed.get(name)
        if got is None:
            breaches.append({"type": "regression", "key": key, "step": name, "missing": True})
            continue
        want_d, got_d = Decimal(want), Decimal(got)
        if want_d == 0 or abs(got_d - want_d) / abs(want_d) >= Decimal("0.1"):
            breaches.append({
                "type": "regression", "key": key, "step": name,
                "expected": want, "observed": got,
            })
    return breaches


def cmd_audit(args) -> int:
    if args.fixtures and not args.fixture_key:
        raise ValueError("--fixtures needs --fixture-key <theorem>/<family>/n=<size>, e.g. T2/squares/n=16")
    a = read_set_file(args.input)
    c = read_set_file(args.cset) if args.cset else None
    fn = theorem_fn(args.theorem, fn_by_name(args.fn))
    lines = [_header(args, input=args.input, theorem=args.theorem, fn=fn.name)]
    try:
        chain = audit_theorem(args.theorem, fn, a, c, digits=args.precision)
    except AuditFailure as failure:
        lines.append(failure.report.to_json_dict())
        lines.append({"type": "counterexample", "inputs": failure.inputs})
        _emit(args, "\n".join(_dump(l) for l in lines) + "\n")
        _note(f"FAIL: {failure.report.name} (counterexample dumped)")
        return AUDIT_ERROR
    lines.extend(chain.to_json_lines())
    status = 0
    if args.fixtures:
        breaches = _fixture_breaches(args.fixtures, args.fixture_key, chain)
        lines.extend(breaches)
        if breaches:
            status = AUDIT_ERROR
    _emit(args, "\n".join(_dump(l) for l in lines) + "\n")
    fails = [s.name for s in chain.steps if s.verdict == "FAIL"]
    _note(f"{chain.theorem}: {len(chain.steps)} steps, final ratio {chain.final_ratio}")
    if status:
        _note("regression breach against fixtures")
    return AUDIT_ERROR if fails else status


def cmd_incidence(args) -> int:
    fn = fn_by_name(args.fn)
    a = read_set_file(args.input)
    b = read_set_file(args.bset)
    c = read_set_file(args.cset)
    taus = tuple(int(t) for t in args.tau.split(",")) if args.tau is not None else TAUS
    grid, family = build_instance(fn, a, b, c)
    report = count_incidences(grid, family, taus=taus)
    payload = {**_header(args, fn=fn.name), "incidence": report.to_json_dict(args.precision)}
    levels = []
    for tau in taus:
        levels.append(lemma_st1_ratio(fn, a, b, c, tau).to_json_dict(args.precision))
        levels.append(lemma_st2_ratio(fn, a, b, c, tau).to_json_dict(args.precision))
    payload["levelSets"] = levels
    _emit(args, _dump(payload) + "\n")
    _note(f"incidences = {report.incidences} on {report.points} points x {report.curves} curves")
    _note(f"bound holds: {report.st_bound_holds}; max curves through a point: {report.max_point_curves}")
    return 0


def cmd_scan(args) -> int:
    fn = fn_by_name(args.fn) if args.fn else None
    sizes = [int(s) for s in args.sizes.split(",")]
    seed = args.seed or 0
    result = growth_scan(args.kind, fn, sizes, seed=seed)
    header = (f"# command scan\n# seed {seed}\n# seedRule {SEED_RULE}\n"
              f"# precision {args.precision}\n# kind {args.kind}\n# fn {fn.name if fn else ''}\n")
    _emit(args, header + scan_to_tsv(result, args.precision))
    for metric, slope in sorted(result.ls_slopes.items()):
        _note(f"ls slope {metric}: {float(slope):.4f}")
    return 0


def cmd_search(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        data = json.load(fh)
    if args.seed is not None:
        data["seed"] = args.seed
    cfg = SearchConfig.from_json_dict(data)
    outcome = extremal_search(cfg, digits=args.precision)
    best = outcome.best_objective_decimal(args.precision)
    lines = [_header(args, seed=args.seed or 0, config=cfg.to_json_dict())]
    lines.extend(outcome.traces)
    lines.append({
        "type": "result",
        "bestObjective": best,
        "bestSet": [format_scalar(q) for q in outcome.best_set],
    })
    _emit(args, "\n".join(_dump(l) for l in lines) + "\n")
    if args.best_set:
        write_set_file(args.best_set, outcome.best_set, header=f"best set, objective {best}")
    _note(f"best objective {best} after {cfg.iterations} iterations x {cfg.restarts} restarts")
    return 0


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; `main` runs cmd_<command>."""
    parser = _Parser(prog="convexlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="set sizes and energy moments")
    p.add_argument("--input", required=True)
    _add_common(p)

    p = sub.add_parser("audit", help="replay a theorem chain on a set file")
    p.add_argument("--input", required=True)
    p.add_argument("--theorem", choices=THEOREMS, required=True)
    p.add_argument("--fn", default="square",
                   help="square | power:k | reciprocal | exp2 | log-as-product")
    p.add_argument("--cset", default=None, help="optional C set file (default C = f(A))")
    p.add_argument("--fixtures", default=None, help="chain fixture file to check the ratios against")
    p.add_argument("--fixture-key", default=None, help="the fixture entry, <theorem>/<family>/n=<size>")
    _add_common(p)

    p = sub.add_parser("incidence", help="point-curve incidence instance")
    p.add_argument("--input", required=True, help="A set file")
    p.add_argument("--bset", required=True)
    p.add_argument("--cset", required=True)
    p.add_argument("--fn", default="square")
    p.add_argument("--tau", default=None, help="comma-separated richness thresholds")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored: the count always runs serially")
    _add_common(p)

    p = sub.add_parser("scan", help="growth exponents across a family")
    p.add_argument("--kind", choices=ALL_KINDS, required=True)
    p.add_argument("--fn", default="square")
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.add_argument("--seed", type=int, default=None, help="defaults to 0")
    _add_common(p)

    p = sub.add_parser("search", help="simulated-annealing extremal search")
    p.add_argument("--config", required=True, help="JSON search configuration")
    p.add_argument("--best-set", default=None, help="write the best set to this file")
    p.add_argument("--seed", type=int, default=None, help="overrides the config's seed")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored: the restarts always run serially")
    _add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ParseError as exc:
        _note(f"parse error: {exc}")
        return USAGE_ERROR
    except FileNotFoundError as exc:
        _note(f"missing file: {exc}")
        return USAGE_ERROR
    except (ConvexLabError, ValueError, json.JSONDecodeError) as exc:
        _note(f"error: {exc}")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
