"""Command-line front end composing the library into reproducible pipelines.

Exit codes: 0 = verified/success, 1 = property refuted (report carries the
witness), 2 = search budget exceeded, 3 = usage error: a bad argument, an
unreadable input file, or any ValueError the library raises on bad input
(the library owns every bound on its inputs).  Reports are JSON
with sorted keys and no timestamps, so identical inputs give identical
bytes; the repro-all summary additionally records wall-clock per criterion.

Each `cmd_*` returns (exit code, output) and writes nothing: the output is
the report dict, or the CSV text of `sphere sweep`.  `main` is the one
writer, to `--out` and to stdout.  A command that raises (`BudgetExceeded`,
a usage error) returns no output, so `main` prints one stderr line and
writes no report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from kdiameter import __version__
from kdiameter.clustering import exact_cluster, gonzalez_cluster, two_cluster
from kdiameter.coloring import BudgetExceeded, DEFAULT_BUDGET
from kdiameter.gadgets import (
    GadgetH,
    build_composite,
    build_gadget_H,
    oriented_embedding_library,
    stitch_embedding,
    stitch_slot_maps,
    verify_gadget,
)
from kdiameter.geometry import Pointset, json_loads
from kdiameter.graphs import Graph, Hypergraph, incidence_hypergraph
from kdiameter.hadamard import Embedding, verify_embedding
from kdiameter.lp import max_embeddability
from kdiameter.sphere import (
    SEPARATION_THRESHOLD,
    build_P_G,
    build_region_instance,
    separation_answer,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    """A bad argument or input file.  Not a ValueError: argparse replaces a
    ValueError from a `type=` parser with a message of its own."""


def _parse_file(path, what, parse):
    """`parse` applied to the text of the file at `path`; a ValueError,
    KeyError or TypeError from it becomes a one-line usage error."""
    with open(path) as f:
        text = f.read()
    try:
        return parse(text)
    except (ValueError, KeyError, TypeError) as e:
        raise _UsageError(f"bad {what} in {path}: {e}")


def _graph_from_text(text):
    """A graph from JSON text, or from an edge list when the text is not a
    JSON object: a truncated JSON file reports its JSON error."""
    if text.lstrip().startswith("{"):
        return Graph.from_json(text)
    return Graph.from_edge_list_text(text)


def _from_report(key, from_dict):
    """A parser of JSON text into `from_dict` of its `key` section (a
    report), or of the whole payload when it has none."""
    def parse(text):
        payload = json_loads(text)
        return from_dict(payload[key] if key in payload else payload)
    return parse


_PARSERS = {"graph": _graph_from_text,
            "gadget": _from_report("gadget", GadgetH.from_dict),
            "embedding": Embedding.from_json,
            "hypergraph": Hypergraph.from_json,
            "pointset": _from_report("pointset", Pointset.from_dict)}


def _load(kind, path):
    """The `kind` (a key of `_PARSERS`) read from the file at `path`."""
    return _parse_file(path, kind, _PARSERS[kind])


def _parse_fraction(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise _UsageError(f"bad fraction {s!r}: {e}")


def _parse_int(s, what, least):
    try:
        value = int(s)
    except ValueError:
        raise _UsageError(f"bad {what} {s!r}: not an integer")
    if value < least:
        raise _UsageError(f"bad {what} {s!r}: must be at least {least}")
    return value


def _parse_kappa(s):
    return _parse_int(s, "kappa", 1)


def _parse_budget(s):
    return _parse_int(s, "budget", 0)


def _parse_kappas(s):
    """Parse "4..16" or a comma list into a list of positive ints."""
    if ".." in s:
        lo, hi = s.split("..", 1)
        kappas = list(range(_parse_kappa(lo), _parse_kappa(hi) + 1))
        if not kappas:
            raise _UsageError(f"bad kappa range {s!r}: empty")
        return kappas
    return [_parse_kappa(x) for x in s.split(",")]


def _exact_value(x):
    """Serialize an exact scalar: int, Fraction, or squared surd."""
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, int):
        return x
    if hasattr(x, "m"):
        return {"m": x.m, "n1": x.n1, "n2": x.n2}
    return str(x)


def _write_stdout(text):
    """Write `text` to stdout.  A reader that closes the pipe early (as
    `| head` does) gets no more, and the command keeps its own exit code:
    stdout is moved to devnull, as the Python docs advise, so the flush at
    exit does not fail again."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def _emit(output, args):
    """Write a command's output, a report dict as sorted JSON or text as it
    is, to `--out`, and to stdout too with `--json` or no `--out`."""
    if isinstance(output, dict):
        output = json.dumps(output, sort_keys=True, indent=2, default=str) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(output)
    if args.json or not args.out:
        _write_stdout(output)


def _report(args, command, **fields):
    return {"command": command, "version": __version__,
            "parameters": {"budget_nodes": args.budget_nodes,
                           "seed": args.seed}, **fields}


# ---------------------------------------------------------------------------
# subcommands


def cmd_gadget_build(args):
    gadget = build_gadget_H(budget=args.budget_nodes)
    return EXIT_OK, _report(args, "gadget build", gadget=gadget.to_dict(),
                            verdicts={"certified": True})


def cmd_gadget_verify(args):
    if args.gadget:
        gadget = _load("gadget", args.gadget)
    else:
        gadget = build_gadget_H(budget=args.budget_nodes)
    ok = verify_gadget(gadget, budget=args.budget_nodes)
    return (EXIT_OK if ok else EXIT_REFUTED), _report(
        args, "gadget verify", gadget=gadget.to_dict(),
        verdicts={"certified": ok})


def _composite_from_args(args):
    J = _load("graph", args.graph)
    gadget = build_gadget_H(budget=args.budget_nodes)
    # refuses a J that is not cubic and bridgeless before any loop over J.n
    slot_maps = stitch_slot_maps(J)
    return J, gadget, build_composite(incidence_hypergraph(J), gadget,
                                      slot_maps=slot_maps)


def cmd_composite_build(args):
    _, gadget, comp = _composite_from_args(args)
    return EXIT_OK, _report(
        args, "composite build", gadget=gadget.to_dict(),
        composite={"graph": comp.graph.to_dict(),
                   "slot_maps": [list(m) for m in comp.slot_maps]},
        verdicts={"built": True})


def _verified(args, command, result, **fields):
    """Exit code and report of an embedding check `result`."""
    return (EXIT_OK if result["ok"] else EXIT_REFUTED), _report(
        args, command, verdicts={"verified": result["ok"]},
        achieved_ratio=_exact_value(result["achieved_ratio"]),
        worst_edge_pair=result["worst_edge_pair"],
        worst_nonedge_pair=result["worst_nonedge_pair"], **fields)


def cmd_composite_embed(args):
    J, gadget, comp = _composite_from_args(args)
    library = oriented_embedding_library(gadget)
    emb = stitch_embedding(comp, J, library=library)
    return _verified(args, "composite embed", verify_embedding(emb),
                     q=emb.short, long=emb.long,
                     pointset=emb.pointset.to_dict())


def cmd_sphere_region(args):
    instance = build_region_instance(tuple(args.axes), args.kappa)
    return EXIT_OK, _report(args, "sphere region", kappa=args.kappa,
                            points=len(instance.points),
                            pointset=instance.pointset().to_dict())


def cmd_sphere_verify(args):
    instance = build_region_instance((0, 1, 2), args.kappa)
    threshold = _parse_fraction(args.t)
    holds, witness, nodes = separation_answer(instance, threshold,
                                              args.budget_nodes)
    found = {} if holds == "budget_exceeded" else {"witness": witness}
    code = {True: EXIT_OK, False: EXIT_REFUTED}.get(holds, EXIT_BUDGET)
    return code, _report(
        args, "sphere verify-lemma53", kappa=args.kappa,
        threshold=_exact_value(threshold),
        verdicts={"separation_holds": holds}, nodes=nodes, **found)


def cmd_sphere_reduce(args):
    hypergraph = _load("hypergraph", args.hypergraph)
    instance = build_P_G(hypergraph, kappa=args.kappa)
    return EXIT_OK, _report(args, "sphere reduce", kappa=args.kappa,
                            regions=len(instance.regions),
                            points=len(instance.points),
                            pointset=instance.pointset().to_dict())


def cmd_sphere_sweep(args):
    """One CSV row per (kappa, t) answer: exit 2 if any row exhausted its
    budget, otherwise 0."""
    kappas = _parse_kappas(args.kappa)
    thresholds = [_parse_fraction(t) for t in args.t_grid.split(",")]
    lines = ["kappa,t_num,t_den,separation_holds,nodes_explored"]
    exhausted = False
    for kappa in kappas:
        instance = build_region_instance((0, 1, 2), kappa)
        for t in thresholds:
            holds, _, nodes = separation_answer(instance, t, args.budget_nodes)
            verdict = {True: "yes", False: "no"}.get(holds, holds)
            lines.append(f"{kappa},{t.numerator},{t.denominator},"
                         f"{verdict},{nodes}")
            exhausted |= holds == "budget_exceeded"
    return (EXIT_BUDGET if exhausted else EXIT_OK), "\n".join(lines) + "\n"


def cmd_cluster(args):
    """`--k` defaults to 3 for `exact` and `gonzalez`; `two` takes only 2."""
    if args.mode == "two" and args.k not in (None, 2):
        raise _UsageError(f"cluster two is 2-clustering: --k {args.k} is not 2")
    k = 3 if args.k is None else args.k
    pointset = _load("pointset", args.pointset)
    try:
        if args.mode == "exact":
            clustering = exact_cluster(pointset, k, budget=args.budget_nodes)
        elif args.mode == "gonzalez":
            clustering = gonzalez_cluster(pointset, k)
        else:
            clustering = two_cluster(pointset)
    except ValueError as e:
        raise _UsageError(f"pointset {args.pointset}: {e}")
    return EXIT_OK, _report(args, f"cluster {args.mode}", k=clustering.k,
                            assignment=clustering.assignment,
                            diameter=_exact_value(clustering.diameter),
                            witness_pair=clustering.witness_pair)


def cmd_embeddability(args):
    result = max_embeddability(_load("graph", args.graph))
    cert = {"unbounded": result["unbounded"], "verified": result["certified"]}
    if result["ratio"] is not None:
        cert["r_num"] = result["ratio"].numerator
        cert["r_den"] = result["ratio"].denominator
    if result["embedding"] is not None:
        cert["q"] = result["embedding"].short
        cert["image"] = {str(v): w.to_string()
                         for v, w in enumerate(result["embedding"].image)}
    ok = result["certified"]
    return (EXIT_OK if ok else EXIT_REFUTED), _report(
        args, "embeddability", certificate=cert, verdicts={"certified": ok})


def cmd_embedding_verify(args):
    emb = _load("embedding", args.embedding)
    return _verified(args, "embedding verify", verify_embedding(emb))


def cmd_repro_all(args):
    """Run every criterion: exit 1 if one is refuted or errs, otherwise 2 if
    one exhausts its budget, otherwise 0."""
    from kdiameter.acceptance import CRITERIA

    summary = []
    failed = exhausted = False
    for num in sorted(CRITERIA):
        name, fn = CRITERIA[num]
        start = time.perf_counter()
        try:
            result = fn(budget=args.budget_nodes, seed=args.seed)
        except BudgetExceeded as e:
            result = {"ok": False, "verdict": "budget_exceeded",
                      "nodes": e.nodes}
        except Exception as e:  # keep independent criteria running
            result = {"ok": False, "error": repr(e)}
        if result.get("verdict") == "budget_exceeded":
            exhausted = True
        elif not result.get("ok", False):
            failed = True
        summary.append({"criterion": num, "name": name,
                        "ok": result.get("ok", False),
                        "seconds": round(time.perf_counter() - start, 3),
                        "details": {k: v for k, v in result.items()
                                    if k != "ok"}})
    code = EXIT_REFUTED if failed else EXIT_BUDGET if exhausted else EXIT_OK
    return code, _report(args, "repro-all", criteria=summary,
                         verdicts={"all_pass": code == EXIT_OK})


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget-nodes", type=_parse_budget,
                        default=DEFAULT_BUDGET)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None)
    common.add_argument("--json", action="store_true",
                        help="print the report to stdout even when --out is set")

    parser = _Parser(prog="kdiameter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gadget = sub.add_parser("gadget").add_subparsers(dest="sub", required=True)
    gadget.add_parser("build", parents=[common]).set_defaults(
        func=cmd_gadget_build)
    p = gadget.add_parser("verify", parents=[common])
    p.add_argument("--gadget", default=None)
    p.set_defaults(func=cmd_gadget_verify)

    composite = sub.add_parser("composite").add_subparsers(dest="sub",
                                                           required=True)
    p = composite.add_parser("build", parents=[common])
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_composite_build)
    p = composite.add_parser("embed", parents=[common])
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_composite_embed)

    sphere = sub.add_parser("sphere").add_subparsers(dest="sub", required=True)
    p = sphere.add_parser("region", parents=[common])
    p.add_argument("--kappa", type=_parse_kappa, required=True)
    p.add_argument("--axes", type=int, nargs=3, default=(0, 1, 2))
    p.set_defaults(func=cmd_sphere_region)
    p = sphere.add_parser("verify-lemma53", parents=[common])
    p.add_argument("--kappa", type=_parse_kappa, default=12)
    p.add_argument("--t", default=str(SEPARATION_THRESHOLD))
    p.set_defaults(func=cmd_sphere_verify)
    p = sphere.add_parser("reduce", parents=[common])
    p.add_argument("--hypergraph", required=True)
    p.add_argument("--kappa", type=_parse_kappa, default=12)
    p.set_defaults(func=cmd_sphere_reduce)
    p = sphere.add_parser("sweep", parents=[common])
    p.add_argument("--kappa", required=True, help="range like 4..16 or list")
    p.add_argument("--t-grid", required=True, help="comma list of fractions")
    p.set_defaults(func=cmd_sphere_sweep)

    p = sub.add_parser("cluster", parents=[common])
    p.add_argument("mode", choices=("exact", "gonzalez", "two"))
    p.add_argument("--pointset", required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("embeddability", parents=[common])
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_embeddability)

    embedding = sub.add_parser("embedding").add_subparsers(dest="sub",
                                                           required=True)
    p = embedding.add_parser("verify", parents=[common])
    p.add_argument("--embedding", required=True)
    p.set_defaults(func=cmd_embedding_verify)

    sub.add_parser("repro-all", parents=[common]).set_defaults(
        func=cmd_repro_all)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, output = args.func(args)
        _emit(output, args)
        return code
    except (_UsageError, OSError, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as e:
        print(f"budget exceeded after {e.nodes} nodes", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
