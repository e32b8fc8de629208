"""Command-line front end.

Subcommands: ``netgen`` (one population network), ``covgen`` (correlated
binary covariates), ``rds`` (one recruitment run over a stored network),
``estimate`` (estimates from stored forests), ``experiment`` (the grid
sweep), and ``engage-mimic`` (the multi-attribute scenario). Every run
writes a manifest echoing the effective config and master seed, so any
output can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import (
    _refused,
    covariate_spec_from_config,
    engage_scenario_from_config,
    experiment_plan_from_config,
    has_covariate_sections,
    load_config,
    multi_network_run_from_config,
    network_run_from_config,
    sampler_config_from_config,
    serialize_config,
)
from .covariates import binary_sampler
from .errors import ConfigError, RdsimError, _check_count
from .estimators import sample_estimates
from .graph import (
    EDGE_COLUMNS,
    Graph,
    mean_degree,
    read_attributes,
    read_edge_list,
    write_attributes,
    write_edge_list,
)
from .harness import _TRUTHS, _realized_truth, run_engage_mimic, run_experiment
from .netgen import fit_dyad_model, generate_network, simulate_from_model
from .sampler import read_forest, run_rds, write_forest
from .tables import in_file, read_table, write_rows


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def _blas_build() -> dict[str, str]:
    """Name, version and build configuration of numpy's BLAS, where ``np.show_config`` takes ``mode=``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26, or a build that does not report it
        return {}
    keys = {"name": "name", "version": "version", "configuration": "openblas configuration"}
    return {label: blas[key] for label, key in keys.items() if key in blas}


def _blas_core() -> str | None:
    """OpenBLAS's name for the kernel it runs, or None where numpy bundles no scipy-openblas.

    ``DYNAMIC_ARCH`` builds pick the kernel from the CPU, or from
    ``OPENBLAS_CORETYPE``, when the library loads. The name is OpenBLAS's
    own and may differ from that variable's value.
    """
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas*"))
    if len(found) != 1:
        return None
    try:
        # numpy has this library loaded already, so this returns its handle
        corename = ctypes.CDLL(found[0]).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    name = corename()
    return name.decode() if name else None


def _write_manifest(out_dir: str, command: str, seed: int | None, cfg) -> None:
    path = os.path.join(out_dir, "manifest.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"rdsim-version = {__version__}\n")
        # Byte reproducibility also rests on numpy's Generator streams, and on
        # its BLAS, which the covariate draw and the dyad-model fit pass through.
        fh.write(f"python-version = {platform.python_version()}\n")
        fh.write(f"numpy-version = {np.__version__}\n")
        for label, value in _blas_build().items():
            fh.write(f"blas-{label} = {value}\n")
        core = _blas_core()
        if core is not None:
            fh.write(f"blas-core = {core}\n")
        fh.write(f"command = {command}\n")
        if seed is not None:
            fh.write(f"master-seed = {seed}\n")
        fh.write("\n")
        fh.write(serialize_config(cfg))


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _attribute_stats(graph, values) -> list[str]:
    truth = _realized_truth(graph, values)
    return [
        f"{name}=undefined" if truth[name] is None else f"{name}={truth[name]:.4g}" for name in _TRUTHS
    ]


def _check_seed(seed: int, source: str) -> None:
    # default_rng takes no negative entropy; fail as the sweeps do, before any output
    with _refused(source):
        _check_count("seed", seed, 0)


def cmd_netgen(args) -> int:
    cfg = load_config(args.config)
    _check_seed(args.seed, args.config)
    if has_covariate_sections(cfg):
        n, mean_deg, targets, spec = multi_network_run_from_config(cfg, source=args.config)
        z = binary_sampler(spec).sample(n, np.random.default_rng((args.seed, 0)))
        model = fit_dyad_model(targets, mean_deg, z)
        graph = simulate_from_model(model, z, np.random.default_rng((args.seed, 1)))
        names = spec.names
        per_attr = [
            f"{name}: " + " ".join(_attribute_stats(graph, z[:, k]))
            for k, name in enumerate(names)
        ]
        summary = " | ".join(per_attr)
    else:
        targets, mode = network_run_from_config(cfg, source=args.config)
        graph, z = generate_network(targets, np.random.default_rng((args.seed, 0)), mode)
        names = ("z",)
        summary = " ".join(_attribute_stats(graph, z))
    out = _ensure_out(args)
    write_edge_list(graph, os.path.join(out, "edges.csv"))
    write_attributes(os.path.join(out, "attributes.csv"), names, z)
    _write_manifest(out, "netgen", args.seed, cfg)
    _say(
        args,
        f"netgen: wrote edges.csv attributes.csv | n={graph.node_count} "
        f"edges={graph.edge_count} mean_degree={mean_degree(graph):.4g} | {summary}",
    )
    return 0


def cmd_covgen(args) -> int:
    cfg = load_config(args.config)
    _apply_seed_override(cfg, "covgen", args.seed)
    spec, n, seed = covariate_spec_from_config(cfg, source=args.config)
    values = binary_sampler(spec).sample(n, np.random.default_rng((seed, 0)))
    out = _ensure_out(args)
    write_attributes(os.path.join(out, "attributes.csv"), spec.names, values)
    _write_manifest(out, "covgen", seed, cfg)
    marginals = ", ".join(f"{name}={values[:, k].mean():.4g}" for k, name in enumerate(spec.names))
    _say(args, f"covgen: wrote attributes.csv | n={n} {marginals}")
    return 0


def cmd_rds(args) -> int:
    cfg = load_config(args.config)
    _check_seed(args.seed, args.config)
    sampler_config = sampler_config_from_config(cfg, source=args.config)
    names, z = read_attributes(args.attributes)
    graph = read_edge_list(args.edges, node_count=len(z))
    forest = run_rds(graph, z, sampler_config, np.random.default_rng((args.seed, 0)), names)
    out = _ensure_out(args)
    write_forest(forest, os.path.join(out, "forest.csv"))
    _write_manifest(out, "rds", args.seed, cfg)
    _say(
        args,
        f"rds: wrote forest.csv | sampled={forest.size} max_wave={forest.max_wave} "
        f"reseeds={forest.reseed_count} truncated={str(forest.truncated).lower()}",
    )
    return 0


def cmd_estimate(args) -> int:
    forests = [read_forest(path) for path in args.forest]
    graph = None
    if args.edges is not None:
        _, pairs = read_table(args.edges, EDGE_COLUMNS, named=False)
        if pairs.min(initial=0) < 0:  # an empty cell reads as -1
            raise ValueError(f"{args.edges}: edge endpoint {pairs.min()} is negative")
        # the graph's nodes are the ids read, labelled in order; relabelled forests recheck
        # themselves. The distinct ids are the run starts of one sort (np.unique would load numpy.ma)
        ids = np.sort(np.concatenate([pairs.ravel()] + [forest.nodes for forest in forests]))
        starts = np.ones(ids.size, dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=starts[1:])
        ids = ids[starts]
        with in_file(args.edges):
            graph = Graph(ids.size, *ids.searchsorted(pairs.T))
        # a forest drawn on another network has recruiter-recruit pairs that are not edges
        # here. The edge keys increase along the edge list, so a search lands on a tie's key
        # or on a larger one, at worst the sentinel n * n (np.isin would load numpy.ma)
        n = graph.node_count
        edge_keys = np.append(graph.src * n + graph.dst, n * n)
        for i, (path, forest) in enumerate(zip(args.forest, forests)):
            recruiters = np.where(forest.recruiters < 0, -1, ids.searchsorted(forest.recruiters))
            forests[i] = forest = replace(forest, nodes=ids.searchsorted(forest.nodes), recruiters=recruiters)
            lo, hi = np.sort(np.stack(forest.recruitment_edges()), axis=0)
            keys = lo * n + hi
            stray = edge_keys[edge_keys.searchsorted(keys)] != keys
            if stray.any():
                raise ValueError(f"{path}: tie {ids[lo[stray][0]]}-{ids[hi[stray][0]]} is not an edge of {args.edges}")
    rows = []
    # column -> the (forest, estimate, attribute) that first fills it: attribute names
    # such as "X" and "ratio_X" spell one column for two estimates
    filled = {}
    for path, forest in zip(args.forest, forests):
        est = sample_estimates(forest, graph)
        row = {"forest": path, "sample_size": est.sample_size, "max_wave": est.max_wave}
        for k, name in enumerate(est.attribute_names):
            for field, value in est.for_attribute(k).items():
                column = f"est_{field}_{name}"
                first, first_field, first_name = filled.setdefault(column, (path, field, name))
                if (first_field, first_name) != (field, name):
                    where = path if first == path else f"{first} and {path}"
                    raise ValueError(
                        f"{where}: column {column!r} would hold both {first_field} of attribute "
                        f"{first_name!r} and {field} of attribute {name!r}"
                    )
                row[column] = value
        rows.append(row)
        _say(args, f"estimate: {path} sampled={est.sample_size} max_wave={est.max_wave}")
    out = _ensure_out(args)
    # forests may name different attributes: take every row's columns, in order
    header = list(dict.fromkeys(key for row in rows for key in row))
    write_rows(os.path.join(out, "estimates.csv"), header, rows)
    inputs = {f"forest{i}": path for i, path in enumerate(args.forest)}
    if args.edges is not None:
        inputs["edges"] = args.edges
    _write_manifest(out, "estimate", None, {"inputs": inputs})
    _say(args, f"estimate: wrote estimates.csv ({len(rows)} rows)")
    return 0


def _apply_seed_override(cfg, section: str, seed: int | None) -> None:
    # the manifest echoes cfg, so the seed goes in; a missing section stays for the config check to name
    if seed is not None and section in cfg:
        cfg[section]["seed"] = str(seed)


def cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    _apply_seed_override(cfg, "experiment", args.seed)
    plan = experiment_plan_from_config(cfg, source=args.config)
    out = _ensure_out(args)
    _say(
        args,
        f"experiment: {len(plan.cells())} cells x {plan.replicates} replicates "
        f"(N={plan.node_count}, mean_degree={plan.mean_degree}, threads={args.threads})",
    )
    rows, summary = run_experiment(plan, threads=args.threads, out_dir=out)
    _write_manifest(out, "experiment", plan.master_seed, cfg)
    skipped = {}
    for row in rows:
        if row["status"] == "skipped":
            skipped[row["cell"]] = row["reason"]
    for cell_index, reason in sorted(skipped.items()):
        print(f"warning: cell {cell_index} skipped: {reason}", file=sys.stderr)
    _say(
        args,
        f"experiment: wrote replicates.csv summary.csv "
        f"({len(rows)} rows, {len(skipped)} skipped cells)",
    )
    return 0


def cmd_engage(args) -> int:
    cfg = load_config(args.config)
    _apply_seed_override(cfg, "engage", args.seed)
    scenario = engage_scenario_from_config(cfg, source=args.config)
    out = _ensure_out(args)
    _say(
        args,
        f"engage-mimic: N={scenario.node_count} sample={scenario.sample_size} "
        f"replicates={scenario.replicates} covariates={','.join(scenario.covariate_names)} "
        f"(threads={args.threads})",
    )
    rows, summary = run_engage_mimic(scenario, threads=args.threads, out_dir=out)
    _write_manifest(out, "engage-mimic", scenario.master_seed, cfg)
    skipped = sum(1 for row in rows if row["status"] == "skipped")
    if skipped:
        print(f"warning: {skipped} replicates skipped (fit failures)", file=sys.stderr)
    for entry in summary:
        if entry["estimand"] == "diff_activity" and entry["mean"] is not None:
            _say(
                args,
                f"engage-mimic: {entry['covariate']}: mean RB(diff_activity) = {entry['mean']:+.4f}",
            )
    _say(args, f"engage-mimic: wrote replicates.csv summary.csv ({len(rows)} rows)")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = text  # refused below with the text as given
    try:
        return _check_count("threads", value, 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(parser, seed_default=0, threads=False):
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress informational output")
    parser.add_argument(
        "--seed",
        type=int,
        default=seed_default,
        help="master seed" + (" (overrides the config)" if seed_default is None else ""),
    )
    if threads:
        parser.add_argument(
            "--threads",
            type=_positive_int,
            default=1,
            help="most worker processes (default 1); the pool never exceeds the tasks "
            "or the CPUs this process may use",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdsim",
        description="Simulate recruitment sampling over generated social networks "
        "and measure how well network estimands are recovered.",
    )
    parser.add_argument("--version", action="version", version=f"rdsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("netgen", help="generate one population network from [network] targets")
    _add_common(p)
    p.set_defaults(handler=cmd_netgen)

    p = sub.add_parser("covgen", help="generate correlated binary covariates")
    _add_common(p, seed_default=None)
    p.set_defaults(handler=cmd_covgen)

    p = sub.add_parser("rds", help="run one recruitment sample over a stored network")
    _add_common(p)
    p.add_argument("--edges", required=True, help="edge-list CSV")
    p.add_argument("--attributes", required=True, help="attribute CSV")
    p.set_defaults(handler=cmd_rds)

    p = sub.add_parser("estimate", help="compute estimates from stored forests")
    p.add_argument("--forest", required=True, nargs="+", help="forest CSV path(s)")
    p.add_argument("--edges", help="edge-list CSV enabling the induced-subgraph oracle")
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.add_argument("-q", "--quiet", action="store_true", help="suppress informational output")
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("experiment", help="run the replicated grid sweep")
    _add_common(p, seed_default=None, threads=True)
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("engage-mimic", help="run the multi-attribute cohort-mimic scenario")
    _add_common(p, seed_default=None, threads=True)
    p.set_defaults(handler=cmd_engage)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RdsimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # numpy's _ArrayMemoryError names the array it could not allocate; the
    # interpreter's own MemoryError usually carries no text
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
