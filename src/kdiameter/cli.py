"""Command-line front end composing the library into reproducible pipelines.

Exit codes: 0 = verified/success, 1 = property refuted (report carries the
witness), 2 = search budget exceeded, 3 = usage error.  Reports are JSON
with sorted keys and no timestamps, so identical inputs give identical
bytes; the repro-all summary additionally records wall-clock per criterion.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from kdiameter import __version__
from kdiameter.clustering import (
    MAX_K,
    MAX_POINTS,
    exact_cluster,
    gonzalez_cluster,
    two_cluster,
)
from kdiameter.coloring import BUDGET_ERROR, BudgetExceeded, DEFAULT_BUDGET
from kdiameter.gadgets import (
    GadgetH,
    build_composite,
    build_gadget_H,
    oriented_embedding_library,
    stitch_embedding,
    stitch_slot_maps,
    verify_gadget,
)
from kdiameter.geometry import Pointset
from kdiameter.graphs import Graph, Hypergraph, cut_edges, incidence_hypergraph
from kdiameter.hadamard import Embedding, verify_embedding
from kdiameter.lp import MAX_VERTICES, max_embeddability
from kdiameter.sphere import (
    SEPARATION_THRESHOLD,
    build_P_G,
    build_region_instance,
    kappa_sweep,
    sweep_csv,
    verify_anchor_separation,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


def _load_graph(path):
    with open(path) as f:
        text = f.read()
    try:
        try:
            return Graph.from_json(text)
        except (json.JSONDecodeError, KeyError, TypeError):
            return Graph.from_edge_list_text(text)
    except ValueError as e:
        raise _UsageError(f"bad graph in {path}: {e}")


def _load_cubic_graph(path):
    """A graph the composite construction accepts: cubic and bridgeless."""
    graph = _load_graph(path)
    if not graph.is_regular(3) or cut_edges(graph):
        raise _UsageError(f"graph in {path} is not cubic and bridgeless")
    return graph


def _load_gadget(path):
    with open(path) as f:
        text = f.read()
    try:
        payload = json.loads(text)
        if "gadget" in payload:
            payload = payload["gadget"]
        return GadgetH.from_dict(payload)
    except (ValueError, KeyError, TypeError) as e:
        raise _UsageError(f"bad gadget in {path}: {e}")


def _load_embedding(path):
    with open(path) as f:
        text = f.read()
    try:
        return Embedding.from_json(text)
    except (ValueError, KeyError, TypeError) as e:
        raise _UsageError(f"bad embedding in {path}: {e}")


def _load_hypergraph(path):
    with open(path) as f:
        text = f.read()
    try:
        hypergraph = Hypergraph.from_json(text)
    except (ValueError, KeyError, TypeError) as e:
        raise _UsageError(f"bad hypergraph in {path}: {e}")
    if not hypergraph.is_3_uniform():
        raise _UsageError(f"hypergraph in {path} is not 3-uniform")
    return hypergraph


def _load_pointset(path):
    with open(path) as f:
        text = f.read()
    try:
        payload = json.loads(text)
        if "pointset" in payload:
            payload = payload["pointset"]
        pointset = Pointset.from_dict(payload)
        # points of mixed lengths raise DimensionMismatch here, not mid-search
        for i in range(1, len(pointset)):
            pointset.distance(0, i)
    except (ValueError, KeyError, TypeError) as e:
        raise _UsageError(f"bad pointset in {path}: {e}")
    if not len(pointset):
        raise _UsageError(f"pointset in {path} is empty")
    return pointset


def _parse_fraction(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise _UsageError(f"bad fraction {s!r}: {e}")


def _parse_threshold(s):
    t = _parse_fraction(s)
    if t <= 0:
        raise _UsageError(f"bad threshold {s!r}: must be positive")
    return t


def _parse_kappa(s):
    try:
        kappa = int(s)
    except ValueError:
        raise _UsageError(f"bad kappa {s!r}: not an integer")
    if kappa < 1:
        raise _UsageError(f"bad kappa {s!r}: must be positive")
    return kappa


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


def _emit(report, args):
    text = json.dumps(report, sort_keys=True, indent=2, default=str)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    if args.json or not args.out:
        print(text)


def _report(args, command, **fields):
    return {"command": command, "version": __version__,
            "parameters": {"budget_nodes": args.budget_nodes,
                           "seed": args.seed}, **fields}


# ---------------------------------------------------------------------------
# subcommands


def cmd_gadget_build(args):
    gadget = build_gadget_H(budget=args.budget_nodes)
    report = _report(args, "gadget build", gadget=gadget.to_dict(),
                     verdicts={"certified": True})
    _emit(report, args)
    return EXIT_OK


def cmd_gadget_verify(args):
    if args.gadget:
        gadget = _load_gadget(args.gadget)
    else:
        gadget = build_gadget_H(budget=args.budget_nodes)
    ok = verify_gadget(gadget, budget=args.budget_nodes)
    report = _report(args, "gadget verify", gadget=gadget.to_dict(),
                     verdicts={"certified": ok})
    _emit(report, args)
    return EXIT_OK if ok else EXIT_REFUTED


def _composite_from_args(args):
    J = _load_cubic_graph(args.graph)
    gadget = build_gadget_H(budget=args.budget_nodes)
    hypergraph = incidence_hypergraph(J)
    slot_maps = stitch_slot_maps(J)
    return J, gadget, build_composite(hypergraph, gadget, slot_maps=slot_maps)


def cmd_composite_build(args):
    _, gadget, comp = _composite_from_args(args)
    report = _report(args, "composite build",
                     gadget=gadget.to_dict(),
                     composite={"graph": comp.graph.to_dict(),
                                "slot_maps": [list(m) for m in comp.slot_maps]},
                     verdicts={"built": True})
    _emit(report, args)
    return EXIT_OK


def cmd_composite_embed(args):
    J, gadget, comp = _composite_from_args(args)
    library = oriented_embedding_library(gadget, budget=args.budget_nodes)
    emb = stitch_embedding(comp, J, library=library, budget=args.budget_nodes)
    result = verify_embedding(emb)
    pointset = Pointset("hamming", emb.image)
    report = _report(args, "composite embed",
                     q=emb.short, long=emb.long,
                     verdicts={"verified": result["ok"]},
                     achieved_ratio=_exact_value(result["achieved_ratio"]),
                     worst_edge_pair=result["worst_edge_pair"],
                     worst_nonedge_pair=result["worst_nonedge_pair"],
                     pointset=pointset.to_dict())
    _emit(report, args)
    return EXIT_OK if result["ok"] else EXIT_REFUTED


def cmd_sphere_region(args):
    if len(set(args.axes)) != 3 or min(args.axes) < 0:
        raise _UsageError(f"--axes needs three distinct non-negative indices, "
                          f"got {args.axes}")
    instance = build_region_instance(tuple(args.axes), args.kappa)
    report = _report(args, "sphere region", kappa=args.kappa,
                     points=len(instance.points),
                     pointset=instance.pointset().to_dict())
    _emit(report, args)
    return EXIT_OK


def cmd_sphere_verify(args):
    instance = build_region_instance((0, 1, 2), args.kappa)
    threshold = _parse_threshold(args.t)
    stats = {"nodes": 0}
    try:
        holds, witness = verify_anchor_separation(
            instance, threshold=threshold, budget=args.budget_nodes,
            stats=stats)
    except BudgetExceeded as e:
        report = _report(args, "sphere verify-lemma53", kappa=args.kappa,
                         threshold=_exact_value(threshold),
                         verdicts={"separation_holds": "budget_exceeded"},
                         nodes=e.nodes)
        _emit(report, args)
        return EXIT_BUDGET
    report = _report(args, "sphere verify-lemma53", kappa=args.kappa,
                     threshold=_exact_value(threshold),
                     verdicts={"separation_holds": holds},
                     witness=witness, nodes=stats["nodes"])
    _emit(report, args)
    return EXIT_OK if holds else EXIT_REFUTED


def cmd_sphere_reduce(args):
    hypergraph = _load_hypergraph(args.hypergraph)
    instance = build_P_G(hypergraph, kappa=args.kappa)
    report = _report(args, "sphere reduce", kappa=args.kappa,
                     regions=len(instance.regions),
                     points=len(instance.points),
                     pointset=instance.pointset().to_dict())
    _emit(report, args)
    return EXIT_OK


def cmd_sphere_sweep(args):
    kappas = _parse_kappas(args.kappa)
    thresholds = [_parse_threshold(t) for t in args.t_grid.split(",")]
    rows = kappa_sweep(kappas, thresholds, budget=args.budget_nodes)
    csv = sweep_csv(rows)
    if args.out:
        with open(args.out, "w") as f:
            f.write(csv)
    else:
        print(csv, end="")
    return EXIT_OK


def cmd_cluster(args):
    pointset = _load_pointset(args.pointset)
    if args.mode == "exact" and not 1 <= args.k <= MAX_K:
        raise _UsageError(f"cluster exact needs 1 <= k <= {MAX_K}, got {args.k}")
    if args.mode == "exact" and len(pointset) > MAX_POINTS:
        raise _UsageError(f"cluster exact takes at most {MAX_POINTS} points, "
                          f"got {len(pointset)}")
    if args.mode == "gonzalez" and args.k < 1:
        raise _UsageError(f"cluster gonzalez needs k >= 1, got {args.k}")
    if args.mode == "exact":
        clustering = exact_cluster(pointset, args.k, budget=args.budget_nodes)
    elif args.mode == "gonzalez":
        clustering = gonzalez_cluster(pointset, args.k)
    else:
        clustering = two_cluster(pointset)
    report = _report(args, f"cluster {args.mode}", k=clustering.k,
                     assignment=clustering.assignment,
                     diameter=_exact_value(clustering.diameter),
                     witness_pair=clustering.witness_pair)
    _emit(report, args)
    return EXIT_OK


def cmd_embeddability(args):
    graph = _load_graph(args.graph)
    if not 1 <= graph.n <= MAX_VERTICES:
        raise _UsageError(f"embeddability needs 1 to {MAX_VERTICES} vertices, "
                          f"got {graph.n}")
    result = max_embeddability(graph)
    cert = {"unbounded": result["unbounded"], "verified": result["certified"]}
    if result["ratio"] is not None:
        cert["r_num"] = result["ratio"].numerator
        cert["r_den"] = result["ratio"].denominator
    if result["embedding"] is not None:
        cert["q"] = result["embedding"].short
        cert["image"] = {str(v): w.to_string()
                         for v, w in enumerate(result["embedding"].image)}
    report = _report(args, "embeddability", certificate=cert,
                     verdicts={"certified": result["certified"]})
    _emit(report, args)
    return EXIT_OK if result["certified"] else EXIT_REFUTED


def cmd_embedding_verify(args):
    emb = _load_embedding(args.embedding)
    result = verify_embedding(emb)
    report = _report(args, "embedding verify",
                     verdicts={"verified": result["ok"]},
                     achieved_ratio=_exact_value(result["achieved_ratio"]),
                     worst_edge_pair=result["worst_edge_pair"],
                     worst_nonedge_pair=result["worst_nonedge_pair"])
    _emit(report, args)
    return EXIT_OK if result["ok"] else EXIT_REFUTED


def cmd_repro_all(args):
    from kdiameter.acceptance import CRITERIA

    summary = []
    all_ok = True
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
        all_ok = all_ok and result.get("ok", False)
        summary.append({"criterion": num, "name": name,
                        "ok": result.get("ok", False),
                        "seconds": round(time.perf_counter() - start, 3),
                        "details": {k: v for k, v in result.items()
                                    if k != "ok"}})
    report = _report(args, "repro-all", criteria=summary,
                     verdicts={"all_pass": all_ok})
    _emit(report, args)
    return EXIT_OK if all_ok else EXIT_REFUTED


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET)
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
    p.add_argument("--k", type=int, default=3)
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
    if BUDGET_ERROR:
        print(f"usage error: {BUDGET_ERROR}", file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as e:
        print(f"budget exceeded after {e.nodes} nodes", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
