"""Command-line surface: deterministic JSON/markdown/text reports.

Every subcommand builds one report document ``{schema_version, command,
inputs, results}``; with ``--json`` it is dumped with sorted keys so equal
inputs (including the seed) give byte-identical output.

``_run`` owns every decision the subcommands share: it resolves ``--seed``
against ``PV_LAB_SEED``, echoes the parsed arguments as ``inputs``, picks
the rendering, and maps each error to its exit code, printing the diagram
grammar only after a diagram or type error.  A ``_cmd_*`` handler only
computes its results, their text, markdown and one-line renderings and, for
``verify-model``, its exit code.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction
from typing import Any

from . import models, pvcore
from .classify import MODES, FamilyMatch, MismatchError, classify, enumerate_reports
from .diagram import (DiagramError, WeightedDiagram, parse_diagram, render_ascii,
                      render_compact, subdiagram)
from .grading import components, compute_grading
from .rootsys import InadmissibleType, SimpleType

SCHEMA_VERSION = "1"
GRAMMAR = "diagram ::= FAMILY RANK '[' node (',' node)* ']'    e.g. A3[1,3], D9[2,3,5,8]"
_EXIT_OK, _EXIT_USAGE, _EXIT_MISMATCH, _EXIT_MODEL = 0, 1, 2, 3

_CLASSICAL_MIN = {"A": 1, "B": 2, "C": 3, "D": 4}
_FIXED_TYPES = {"E6": ("E", 6), "E7": ("E", 7), "E8": ("E", 8), "F4": ("F", 4), "G2": ("G", 2)}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _num(x: Any) -> Any:
    """JSON-safe scalar: exact fractions become ints or 'p/q' strings."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return x


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    raw = os.environ.get("PV_LAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"PV_LAB_SEED must be an integer, got {raw!r}") from None


def _md_table(rows: list[tuple], header: tuple) -> list[str]:
    out = ["| " + " | ".join(header) + " |",
           "|" + "|".join(" --- " for _ in header) + "|"]
    out += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return out


def _component_report(d: WeightedDiagram) -> tuple[list[dict], list[str], list[str]]:
    """The level-1 components as payload, text lines and a markdown table."""
    comps = [{
        "alpha": c.alpha,
        "dim": c.dim,
        "j_alpha": list(c.j_alpha),
        "highest_weight": {str(k): v for k, v in sorted(c.highest_weight.items())},
    } for c in components(d)]
    lines = [f"  V[{c['alpha']}]: dim {c['dim']}, theta neighbors {c['j_alpha']}, "
             f"highest weight {c['highest_weight']}" for c in comps]
    table = _md_table([(f"V[{c['alpha']}]", c["dim"], c["j_alpha"], c["highest_weight"])
                       for c in comps], ("component", "dim", "theta neighbors", "highest weight"))
    return comps, lines, table


@dataclasses.dataclass(frozen=True)
class Document:
    """One command's results, their three renderings and its exit code."""

    results: dict
    text: list[str]
    markdown: list[str]
    summary: str
    exit_code: int = _EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def _cmd_describe(args: argparse.Namespace) -> Document:
    d = parse_diagram(args.diagram)
    name = render_compact(d)
    comps, lines, table = _component_report(d)
    dim_v = sum(c["dim"] for c in comps)
    results = {
        "diagram": name,
        "family": d.type.family,
        "rank": d.type.rank,
        "circled": list(d.circled),
        "theta": list(d.theta),
        "dim_v": dim_v,
        "ascii": render_ascii(d),
        "components": comps,
    }
    text = [render_ascii(d), "",
            f"{name}: rank {d.type.rank}, circled {list(d.circled)}, theta {list(d.theta)}"]
    text += lines
    summary = f"{name}: {len(comps)} level-1 components, dim {dim_v}"
    md = [f"# describe {name}", "", "```", render_ascii(d), "```", ""] + table
    return Document(results, text, md, summary)


def _cmd_grade(args: argparse.Namespace) -> Document:
    d = parse_diagram(args.diagram)
    name = render_compact(d)
    g = compute_grading(d)
    levels = sorted(g.dim_by_level.items())
    results = {
        "diagram": name,
        "h_theta": [_num(x) for x in g.h_theta],
        "levels": [[lvl, dim] for lvl, dim in levels],
        "dim_g": sum(g.dim_by_level.values()),
    }
    text = [f"{name}: grading element H = ({', '.join(str(x) for x in g.h_theta)})"]
    text += [f"  level {lvl:+d}: dim {dim}" for lvl, dim in levels]
    summary = (f"{name}: levels {levels[0][0]}..{levels[-1][0]}, "
               f"dim g = {results['dim_g']}")
    md = [f"# grade {name}", "", f"H = ({', '.join(str(x) for x in g.h_theta)})", ""]
    md += _md_table(levels, ("level", "dim"))
    return Document(results, text, md, summary)


def _cmd_components(args: argparse.Namespace) -> Document:
    d = parse_diagram(args.diagram)
    name = render_compact(d)
    comps, lines, table = _component_report(d)
    results = {"diagram": name, "components": comps}
    text = [f"{name}: {len(comps)} level-1 components"] + lines
    md = [f"# components {name}", ""] + table
    summary = f"{name}: {len(comps)} components, dims {[c['dim'] for c in comps]}"
    return Document(results, text, md, summary)


def _cmd_subdiagram(args: argparse.Namespace) -> Document:
    d = parse_diagram(args.diagram)
    name = render_compact(d)
    try:
        gamma = tuple(int(tok) for tok in args.gamma.split(","))
    except ValueError:
        raise UsageError(f"--gamma wants comma-separated integers, got {args.gamma!r}") from None
    s = subdiagram(d, gamma)
    pieces = [{"nodes": list(nodes), "diagram": render_compact(piece),
               "ascii": render_ascii(piece)}
              for nodes, piece in s.pieces]
    results = {
        "diagram": name,
        "gamma": list(s.gamma),
        "psi_gamma": list(s.psi_gamma),
        "theta_gamma": list(s.theta_gamma),
        "pieces": pieces,
    }
    text = [f"{name} restricted to gamma = {list(s.gamma)}:",
            f"  psi = {list(s.psi_gamma)}, theta part = {list(s.theta_gamma)}"]
    for p in pieces:
        text.append(f"  piece on nodes {p['nodes']}: {p['diagram']}")
        text.extend("    " + line for line in p["ascii"].splitlines())
    md = [f"# subdiagram {name} gamma={list(s.gamma)}", ""]
    md += _md_table([(p["nodes"], p["diagram"]) for p in pieces], ("nodes", "piece"))
    summary = f"{name} | gamma {list(s.gamma)}: " + ", ".join(p["diagram"] for p in pieces)
    return Document(results, text, md, summary)


def _family_payload(match: FamilyMatch | None) -> dict | None:
    if match is None:
        return None
    return {"family": match.family, "params": list(match.params)}


def _classification_payload(report) -> dict:
    w = report.witnesses
    return {
        "diagram": render_compact(report.diagram),
        "method": report.method,
        "seed": report.seed,
        "family": _family_payload(report.family),
        "verdicts": dataclasses.asdict(report.verdicts),
        "witnesses": {**dataclasses.asdict(w), "form_determinant": _num(w.form_determinant)},
    }


def _classify_lines(payload: dict) -> list[str]:
    v, w, fam = payload["verdicts"], payload["witnesses"], payload["family"]
    text = [f"{payload['diagram']}  method={payload['method']}  seed={payload['seed']}"]
    text.append("  family: " + (f"{fam['family']} {tuple(fam['params'])}" if fam else "none"))
    text.append(f"  prehomogeneous={v['prehomogeneous']}  regular={v['regular']}  "
                f"n_invariants={v['n_invariants']}")
    text.append(f"  q_irreducible={v['q_irreducible']}  one_irreducible={v['one_irreducible']}  "
                f"completely_q_reducible={v['completely_q_reducible']}")
    if w["generic_point"] is not None:
        text.append(f"  generic point {tuple(w['generic_point'])}, isotropy dim "
                    f"{w['isotropy_dim']}, form determinant {w['form_determinant']}")
    if w["regular_gamma"] is not None:
        text.append(f"  regular proper piece at gamma = {tuple(w['regular_gamma'])}")
    return text


def _cmd_classify(args: argparse.Namespace) -> Document:
    report = classify(parse_diagram(args.diagram), mode=args.mode, seed=args.seed)
    payload = _classification_payload(report)
    name = payload["diagram"]
    text = _classify_lines(payload)
    fam = payload["family"]
    if payload["verdicts"]["q_irreducible"]:
        summary = f"{name}: Q-irreducible" + (f" (family {fam['family']})" if fam else "")
    else:
        gamma = payload["witnesses"]["regular_gamma"]
        why = f" (regular piece at gamma {tuple(gamma)})" if gamma else ""
        summary = f"{name}: not Q-irreducible{why}"
    md = [f"# classify {name}", ""]
    if fam:
        md += _md_table([(fam["family"], tuple(fam["params"]), name)],
                        ("family", "params", "diagram"))
        md.append("")
    md += _md_table(sorted(payload["verdicts"].items()), ("verdict", "value"))
    return Document(payload, text, md, summary)


def _expand_types(tokens: list[str], max_rank: int) -> list[SimpleType]:
    out: list[SimpleType] = []
    for tok in tokens:
        if tok in _CLASSICAL_MIN:
            lo = _CLASSICAL_MIN[tok]
            if max_rank < lo:
                raise UsageError(f"--max-rank {max_rank} below the smallest {tok} rank {lo}")
            out += [SimpleType(tok, n) for n in range(lo, max_rank + 1)]
        elif tok in _FIXED_TYPES:
            out.append(SimpleType(*_FIXED_TYPES[tok]))
        else:
            raise UsageError(f"unknown type token {tok!r} "
                             f"(expected A, B, C, D, E6, E7, E8, F4 or G2)")
    return out


def _cmd_enumerate(args: argparse.Namespace) -> Document:
    tokens = [t.strip() for t in args.types.split(",") if t.strip()]
    if not tokens:
        raise UsageError("--types wants a comma-separated list, e.g. A,B,C,D,E6")
    types = _expand_types(tokens, args.max_rank)
    reports = enumerate_reports(types, mode=args.mode, seed=args.seed,
                                include_irreducible=args.include_irreducible)
    totals: dict[str, int] = {}
    for r in reports:
        totals[str(r.diagram.type)] = totals.get(str(r.diagram.type), 0) + 1
    hits = [r for r in reports if r.verdicts.q_irreducible]
    results = {
        "types": [str(t) for t in types],
        "mode": args.mode,
        "seed": args.seed,
        "processed": len(reports),
        "totals": totals,
        "q_irreducible": [_classification_payload(r) for r in hits],
        "reports": [{
            "diagram": render_compact(r.diagram),
            "q_irreducible": r.verdicts.q_irreducible,
            "regular": r.verdicts.regular,
            "family": _family_payload(r.family),
        } for r in reports],
    }
    text = [f"enumerate {', '.join(str(t) for t in types)}  mode={args.mode}  seed={args.seed}",
            f"  processed {len(reports)} diagrams"]
    rows = []
    for r in hits:
        fam = _family_payload(r.family)
        label = f"{fam['family']} {tuple(fam['params'])}" if fam else "(irreducible)"
        text.append(f"  Q-irreducible: {render_compact(r.diagram)}  [{label}]")
        rows.append((fam["family"] if fam else "-",
                     tuple(fam["params"]) if fam else "-", render_compact(r.diagram)))
    summary = f"processed {len(reports)} diagrams, {len(hits)} Q-irreducible"
    md = [f"# enumerate {', '.join(tokens)} (max rank {args.max_rank})", "",
          summary, ""]
    md += _md_table(rows, ("family", "params", "diagram"))
    return Document(results, text, md, summary)


def _build_model(model_id: str) -> models.ModelSpec:
    try:
        return models.build_model(model_id)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _cmd_verify_model(args: argparse.Namespace) -> Document:
    spec = _build_model(args.model)
    passed, checks = models.verify_model(spec, seed=args.seed)
    results = {
        "model": spec.name,
        "params": spec.params,
        "seed": args.seed,
        "passed": passed,
        "checks": [dataclasses.asdict(c) for c in checks],
    }
    text = [f"{spec.name}  seed={args.seed}"]
    text += [f"  {'ok  ' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks]
    verdict = "PASS" if passed else "FAIL"
    text.append(f"  => {verdict}")
    summary = f"{spec.name}: {verdict} ({sum(c.passed for c in checks)}/{len(checks)} checks)"
    md = [f"# verify-model {spec.name}", ""]
    md += _md_table([(c.name, "ok" if c.passed else "FAIL", c.detail) for c in checks],
                    ("check", "status", "detail"))
    md += ["", f"**{verdict}**"]
    return Document(results, text, md, summary, _EXIT_OK if passed else _EXIT_MODEL)


def _cmd_decompose(args: argparse.Namespace) -> Document:
    if "[" in args.target:
        pv = pvcore.build_parabolic_pv(parse_diagram(args.target))
    else:
        pv = _build_model(args.target).instance
    try:
        rep = pvcore.decompose_filtration(pv, seed=args.seed)
    except pvcore.NotRegular:
        raise UsageError(f"{pv.name} is not regular; nothing to decompose") from None
    except pvcore.PartialFiltration as e:
        raise UsageError(f"filtration stalled on {pv.name}: {e}") from None
    stages = [{**dataclasses.asdict(s), "determinant": _num(s.determinant)} for s in rep.stages]
    results = {
        "input": pv.name,
        "seed": args.seed,
        "stages": stages,
        "final_isotropy_dim": rep.final_isotropy_dim,
        "final_reductive": rep.final_reductive,
    }
    text = [f"{pv.name}  seed={args.seed}"]
    for i, s in enumerate(stages, 1):
        text.append(f"  stage {i}: {'+'.join(s['labels'])}  dim {s['dim']}, isotropy dim "
                    f"{s['isotropy_dim']}, reductive={s['reductive']}")
    text.append(f"  final isotropy dim {rep.final_isotropy_dim}, "
                f"reductive={rep.final_reductive}")
    summary = (f"{pv.name}: {len(stages)} stages, final isotropy dim "
               f"{rep.final_isotropy_dim} ({'reductive' if rep.final_reductive else 'NOT reductive'})")
    md = [f"# decompose {pv.name}", ""]
    md += _md_table([( '+'.join(s["labels"]), s["dim"], s["isotropy_dim"], s["reductive"])
                     for s in stages], ("stage", "dim", "isotropy dim", "reductive"))
    return Document(results, text, md, summary)


# ---------------------------------------------------------------------------
# wiring


def _add_output_flags(p: argparse.ArgumentParser, suppress: bool) -> None:
    # The flags live on the root parser (defaults) and on every subparser
    # (SUPPRESS, so they are accepted after the subcommand without clobbering
    # values already parsed before it).
    default = argparse.SUPPRESS if suppress else False
    p.add_argument("--json", action="store_true", default=default,
                   help="emit the JSON report document")
    p.add_argument("--markdown", action="store_true", default=default,
                   help="emit markdown instead of text")
    p.add_argument("--quiet", action="store_true", default=default,
                   help="only print the summary line")


def _build_parser() -> _Parser:
    # --help shows the module docstring up to the paragraph for maintainers.
    parser = _Parser(prog="pvlab", description=__doc__.partition("\n\n``_run``")[0])
    _add_output_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        _add_output_flags(p, suppress=True)
        return p

    p = add("describe", _cmd_describe, help="ASCII diagram and level-1 component summary")
    p.add_argument("diagram")
    p = add("grade", _cmd_grade, help="grading element and per-level dimensions")
    p.add_argument("diagram")
    p = add("components", _cmd_components, help="level-1 components with highest weights")
    p.add_argument("diagram")
    p = add("subdiagram", _cmd_subdiagram, help="restrict to a subset of circled nodes")
    p.add_argument("diagram")
    p.add_argument("--gamma", required=True, help="comma-separated circled node indices")
    p = add("classify", _cmd_classify, help="Q-irreducibility verdicts for one diagram")
    p.add_argument("diagram")
    p.add_argument("--mode", choices=MODES, default="both")
    p.add_argument("--seed", type=int, default=None)
    p = add("enumerate", _cmd_enumerate, help="classify every diagram of the given types")
    p.add_argument("--types", required=True, help="e.g. A,B,C,D,E6,E7,E8")
    p.add_argument("--max-rank", type=int, default=5, help="largest classical rank")
    p.add_argument("--mode", choices=MODES, default="both")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--include-irreducible", action="store_true",
                   help="also classify single-circle diagrams")
    p = add("verify-model", _cmd_verify_model, help="run a matrix model's certificate checks")
    p.add_argument("model", help="model id, e.g. matrix-pair:p=2,q=3,r=2")
    p.add_argument("--seed", type=int, default=None)
    p = add("decompose", _cmd_decompose, help="filtration of a diagram or model instance")
    p.add_argument("target", help="diagram like A3[1,3] or model id like sym-vector:n=3")
    p.add_argument("--seed", type=int, default=None)
    return parser


def _emit_mismatch(e: MismatchError, args: argparse.Namespace) -> None:
    fam = _family_payload(e.family)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "error": "mismatch",
        "diagram": render_compact(e.diagram),
        "pattern": fam,
        "oracle": {
            "q_irreducible": e.verdicts.q_irreducible,
            "regular": e.verdicts.regular,
            "n_invariants": e.verdicts.n_invariants,
            "regular_gamma": list(e.witnesses.regular_gamma) if e.witnesses.regular_gamma else None,
            "generic_point": list(e.witnesses.generic_point) if e.witnesses.generic_point else None,
            "isotropy_dim": e.witnesses.isotropy_dim,
            "form_determinant": _num(e.witnesses.form_determinant),
        },
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"mismatch: {e}", file=sys.stderr)
        print(f"  pattern: {fam}", file=sys.stderr)
        print(f"  oracle: {payload['oracle']}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    # Form determinants of large diagrams (A20[3,18] has one) run past the
    # 4300-digit limit on int-to-str conversion; print every digit, and
    # restore the caller's limit afterwards.  Python 3.10 may lack the limit.
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _run(argv)
    finally:
        set_limit(limit)


# Parsed arguments that are not echoed as the document's inputs.
_NOT_INPUTS = {"command", "handler", "json", "markdown", "quiet"}


def _run(argv: list[str] | None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if "seed" in args:
            args.seed = _resolve_seed(args.seed)
        doc = args.handler(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return _EXIT_USAGE
    except (DiagramError, InadmissibleType) as e:
        print(f"error: {e}", file=sys.stderr)
        print(GRAMMAR, file=sys.stderr)
        return _EXIT_USAGE
    except MismatchError as e:
        _emit_mismatch(e, args)
        return _EXIT_MISMATCH
    if args.json:
        inputs = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
        print(json.dumps({"schema_version": SCHEMA_VERSION, "command": args.command,
                          "inputs": inputs, "results": doc.results}, indent=2, sort_keys=True))
    elif args.quiet:
        print(doc.summary)
    elif args.markdown:
        print("\n".join(doc.markdown))
    else:
        print("\n".join(doc.text))
    return doc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
