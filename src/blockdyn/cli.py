"""Command-line interface.

Subcommands: gen, blocks, freq, measure, dist, tile, construct, verify.
All artifacts of one invocation land in a run directory named by the hash
of the effective configuration (config content plus seed override), so
identical inputs produce byte-identical output trees.

Exit codes: 0 success, 1 failed verification, 2 parse/config errors,
3 precondition violations raised by the library.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Sequence

from . import files
from .construction import (
    ConvexTarget,
    RunResult,
    corpus_rep_source,
    run as run_stages,
    vertex_rep_source,
)
from .files import ConfigError, ExperimentConfig, frac_str, parse_frac
from .frequency import count_embeddings, freq_table
from .group import Shape, folner_box
from .measures import CylinderMeasure, block_measure, dist, dist_block, dist_to_hull
from .quasitiling import greedy_tile, verify as verify_tiling
from .symbolic import Block, Corpus, enumerate_family, sample_bernoulli, sample_markov
from .verification import (
    SuiteResult,
    block_measure_gap_suite,
    metric_axioms_suite,
    tiling_average_gap_suite,
)


def _pattern_str(block: Block) -> str:
    sep = "" if all(s <= 10 for s in block.sizes) else "-"
    return "|".join(
        sep.join(str(s) for s in block.row(r)) for r in range(1, block.depth + 1)
    )


def _run_dir(cfg: ExperimentConfig, out: str) -> Path:
    d = Path(out) / f"run-{cfg.content_hash()}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _load_vertices(cfg: ExperimentConfig) -> ConvexTarget:
    if not cfg.vertex_paths:
        raise ConfigError("the configuration lists no target_vertices")
    vertices = tuple(files.read_measure(p) for p in cfg.vertex_paths)
    return ConvexTarget(vertices)


def _families(corpus: Corpus, levels: int):
    return [enumerate_family(corpus, k) for k in range(1, levels + 1)]


def _corpus_block(corpus: Corpus, index: int) -> Block:
    if not 0 <= index < len(corpus.blocks):
        raise ConfigError(f"corpus has no block {index}")
    return corpus.blocks[index]


def _section(cfg: ExperimentConfig, name: str, default: dict | None = None) -> dict:
    section = cfg.raw.get(name, default)
    if not isinstance(section, dict):
        raise ConfigError(f"the {name} section is missing or not an object")
    return section


def _int_option(section: dict, key: str, default: int) -> int:
    return files._int(section.get(key, default), key)


def cmd_gen(cfg: ExperimentConfig, args: argparse.Namespace, rundir: Path) -> int:
    gen_cfg = _section(cfg, "gen")
    seed = cfg.require_seed()
    count = _int_option(gen_cfg, "count", 1)
    kind = gen_cfg.get("kind", "bernoulli")
    try:
        if kind == "bernoulli":
            probs = [[parse_frac(p) for p in row] for row in gen_cfg["probs"]]
            draw = partial(sample_bernoulli, cfg.window, cfg.stack, probs)
        elif kind == "markov":
            init = [parse_frac(p) for p in gen_cfg["init"]]
            trans = [[parse_frac(p) for p in row] for row in gen_cfg["transition"]]
            draw = partial(sample_markov, cfg.window, cfg.stack, init, trans)
        else:
            raise ConfigError(f"unknown generator kind: {kind}")
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed gen section: {exc!r}") from exc
    blocks = [draw(seed + 7919 * i) for i in range(count)]
    corpus = Corpus(cfg.stack, tuple(blocks))
    files.write_corpus(rundir / "corpus.json", corpus)
    print(f"wrote {count} block(s) to {rundir / 'corpus.json'}")
    return 0


def cmd_blocks(cfg: ExperimentConfig, args: argparse.Namespace, rundir: Path) -> int:
    family = enumerate_family(cfg.load_corpus(), args.level)
    files.write_family(rundir / f"family_k{args.level}.json", family)
    print(f"level {args.level}: {len(family)} distinct pattern(s)")
    return 0


def cmd_freq(cfg: ExperimentConfig, args: argparse.Namespace, rundir: Path) -> int:
    block = _corpus_block(cfg.load_corpus(), args.block)
    base = folner_box(args.level, cfg.dim)
    table = freq_table(block, base, args.level)
    embeddings = count_embeddings(block.shape, base)
    rows = []
    for key in sorted(table):
        pat = Block(base, args.level, cfg.stack.sizes[: args.level], key)
        occurrences = table.counts[key]
        rows.append(
            [args.block, args.level, _pattern_str(pat), occurrences, embeddings,
             frac_str(table[key])]
        )
    files.write_csv(
        rundir / f"freq_k{args.level}_b{args.block}.csv",
        ["block_index", "level", "pattern", "N_B", "N_F", "fr_B"],
        rows,
    )
    print(f"{len(rows)} pattern(s), {embeddings} embedding(s)")
    return 0


def cmd_measure(cfg: ExperimentConfig, args: argparse.Namespace, rundir: Path) -> int:
    mu = block_measure(_corpus_block(cfg.load_corpus(), args.block), args.depth)
    out = rundir / f"measure_b{args.block}_j{args.depth}.json"
    files.write_measure(out, mu)
    print(f"wrote {out} ({len(mu.atoms())} atoms)")
    return 0


def cmd_dist(cfg: ExperimentConfig, args: argparse.Namespace, rundir: Path) -> int:
    corpus = cfg.load_corpus()
    x: Block | CylinderMeasure
    if args.mu is not None:
        x = files.read_measure(Path(args.mu))
        x_depth = x.depth
    elif args.block is not None:
        x = _corpus_block(corpus, args.block)
        x_depth = x.depth
    else:
        raise ConfigError("dist needs --mu or --block")

    rows = []
    if args.hull:
        target = _load_vertices(cfg)
        levels = min(target.depth if args.levels is None else args.levels, target.depth, x_depth)
        fams = _families(corpus, levels)
        hd = dist_to_hull(x, target, fams)
        rows.append(["hull_lower", "", frac_str(hd.value)])
        rows.append(["tail", "", frac_str(hd.tail)])
        for i, w in enumerate(hd.weights):
            rows.append([f"weight_{i}", "", frac_str(w)])
        print(f"hull distance in [{hd.value}, {hd.value + hd.tail}]")
    else:
        if args.nu is None:
            raise ConfigError("dist needs --nu (or --hull)")
        nu = files.read_measure(Path(args.nu))
        levels = min(nu.depth if args.levels is None else args.levels, nu.depth, x_depth)
        fams = _families(corpus, levels)
        if isinstance(x, Block):
            interval = dist_block(x, nu, fams)
        else:
            interval = dist(x, nu, fams)
        for level, d_k in enumerate(interval.levels, start=1):
            rows.append(["d_k", level, frac_str(d_k)])
        rows.append(["lower", "", frac_str(interval.lower)])
        rows.append(["tail", "", frac_str(interval.tail)])
        print(f"distance in [{interval.lower}, {interval.upper}]")
    files.write_csv(rundir / "dist.csv", ["quantity", "level", "value"], rows)
    return 0


def cmd_tile(cfg: ExperimentConfig, args: argparse.Namespace, rundir: Path) -> int:
    sides = args.sides or files._ints(cfg.raw.get("tile_sides") or [], "tile_sides")
    if not sides:
        raise ConfigError("tile needs --sides or tile_sides in the configuration")
    shapes = [files._box((0,) * cfg.dim, (s - 1,) * cfg.dim) for s in sides]
    eps = parse_frac(args.eps)
    result = greedy_tile(cfg.window, shapes, eps)
    report = verify_tiling(result.tiling, folner_box(1, cfg.dim))
    files.write_tiling(rundir / "tiling.json", result.tiling)
    assert report.invariance_ratios is not None
    rows = [
        [
            i,
            s,
            len(result.tiling.centers[i]),
            frac_str(report.invariance_ratios[i]),
            frac_str(result.covered_fraction),
            report.disjoint,
            result.reached_target,
        ]
        for i, s in enumerate(sides)
    ]
    files.write_csv(
        rundir / "tile.csv",
        ["shape_index", "side", "num_tiles", "invariance_ratio",
         "covered_fraction", "disjoint", "reached_target"],
        rows,
    )
    print(
        f"covering {result.covered_fraction} "
        f"({'reached' if result.reached_target else 'missed'} 1-eps), "
        f"disjoint={report.disjoint}"
    )
    return 0


def cmd_construct(cfg: ExperimentConfig, args: argparse.Namespace, rundir: Path) -> int:
    if cfg.schedule is None:
        raise ConfigError("construct needs a schedule in the configuration")
    corpus = cfg.load_corpus()
    target = _load_vertices(cfg)
    initial = _corpus_block(corpus, args.block)
    fams = _families(corpus, target.depth)
    rep_cfg = _section(cfg, "representatives", {"source": "corpus"})
    kind = rep_cfg.get("source", "corpus")
    if kind not in ("vertex", "corpus"):
        raise ConfigError(f'unknown representatives.source {kind!r}: use "vertex" or "corpus"')
    if kind == "vertex":
        seed = cfg.require_seed()
        vertex = _int_option(rep_cfg, "vertex", 0)
        if not 0 <= vertex < len(target):
            raise ConfigError(f"the target has no vertex {vertex}")
        count = _int_option(rep_cfg, "count", 8)
        source = vertex_rep_source(target, vertex, seed, count, sizes=cfg.stack.sizes)
    else:
        source = corpus_rep_source(corpus, _int_option(rep_cfg, "limit", 64))
    result: RunResult = run_stages(initial, cfg.schedule, target, fams, source)
    _write_run(rundir, cfg, result)
    last = result.stages[-1]
    print(
        f"{len(result.stages)} stage(s); final replaced fraction "
        f"{last.replaced_fraction}, window distance "
        f"{last.window_distance_before} -> {last.window_distance_after}"
    )
    return 0


def _write_run(rundir: Path, cfg: ExperimentConfig, result: RunResult) -> None:
    assert cfg.schedule is not None
    manifest = {
        "kind": "run",
        "config_hash": cfg.content_hash(),
        "eps": [frac_str(s.eps) for s in cfg.schedule.stages],
        "delta": [frac_str(s.delta) for s in cfg.schedule.stages],
        "eps_total": frac_str(cfg.schedule.eps_total),
        "tile_sides": [s.tile_side for s in cfg.schedule.stages],
        "depths": [s.depth for s in cfg.schedule.stages],
        "stages": len(result.stages),
    }
    files.write_json(rundir / "run_manifest.json", manifest)
    rows = []
    for rep in result.stages:
        rows.append(
            [
                rep.stage,
                frac_str(rep.eps),
                frac_str(rep.delta),
                rep.depth,
                frac_str(rep.covered_fraction),
                frac_str(rep.far_mass_before),
                frac_str(rep.far_mass_after),
                frac_str(rep.replaced_fraction),
                frac_str(rep.window_distance_before or Fraction(0)),
                frac_str(rep.window_distance_after or Fraction(0)),
                frac_str(rep.concat_deviation or Fraction(0)),
                "" if rep.concat_bound is None else frac_str(rep.concat_bound),
            ]
        )
    files.write_csv(
        rundir / "stages.csv",
        ["stage", "eps", "delta", "depth", "covered_fraction", "far_mass_before",
         "far_mass_after", "replaced_fraction", "window_lower_before",
         "window_lower_after", "concat_deviation", "concat_bound"],
        rows,
    )
    for rep in result.stages:
        tile_rows = [
            [
                "(" + " ".join(str(x) for x in t.center) + ")",
                t.shape_index,
                frac_str(t.distance_lower),
                t.replaced,
            ]
            for t in rep.tiles
        ]
        files.write_csv(
            rundir / f"stage_t{rep.stage}_tiles.csv",
            ["center", "shape_index", "d_lower", "replaced"],
            tile_rows,
        )
        changes = [
            {
                "center": list(ch.center),
                "shape_index": ch.shape_index,
                "before": files.block_to_obj(ch.before),
                "after": files.block_to_obj(ch.after),
            }
            for ch in rep.changes
        ]
        files.write_json(rundir / f"changes_t{rep.stage}.json", changes)
    files.write_corpus(
        rundir / "final_block.json", Corpus(cfg.stack, (result.final,))
    )


def _micro_corpus() -> Corpus:
    with resources.as_file(
        resources.files("blockdyn").joinpath("data/micro_corpus.json")
    ) as p:
        return files.read_corpus(p)


def cmd_verify(
    cfg: ExperimentConfig | None, args: argparse.Namespace, rundir: Path
) -> int:
    corpus = cfg.load_corpus() if cfg is not None and cfg.corpus_paths else _micro_corpus()
    if args.seed is not None:
        seed = args.seed
    elif cfg is not None and cfg.seed is not None:
        seed = cfg.seed
    else:
        seed = 2026
    suites: list[SuiteResult] = [
        block_measure_gap_suite(seed, corpus),
        tiling_average_gap_suite(seed),
        metric_axioms_suite(seed),
    ]
    slug = {
        "block-measure gap bound": "verify_block_measure_gap.csv",
        "tiling average gap bound": "verify_tiling_average_gap.csv",
        "metric axioms": "verify_metric_axioms.csv",
    }
    ok = True
    for suite in suites:
        rows = [
            [
                c.name,
                frac_str(c.deviation),
                "" if c.bound is None else frac_str(c.bound),
                "" if c.slack is None else frac_str(c.slack),
                c.violation,
            ]
            for c in suite.cases
        ]
        files.write_csv(
            rundir / slug[suite.name],
            ["case", "deviation", "bound", "slack", "violation"],
            rows,
        )
        print(suite.summary())
        ok = ok and suite.passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockdyn",
        description=(
            "Block frequencies, empirical measures, weak-star distances, "
            "quasitilings and staged block replacement over Z^d."
        ),
    )
    parser.add_argument("--config", type=Path, help="experiment configuration file")
    parser.add_argument("--seed", type=int, help="overrides the configuration seed")
    parser.add_argument("--out", default="runs", help="base output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen", help="sample configurations into a corpus file")

    p = sub.add_parser("blocks", help="enumerate the level-k pattern family")
    p.add_argument("--level", type=int, required=True)

    p = sub.add_parser("freq", help="frequency table of one corpus block")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--block", type=int, default=0)

    p = sub.add_parser("measure", help="build and serialize a block measure")
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("dist", help="certified distances")
    p.add_argument("--mu", help="measure file for the left operand")
    p.add_argument("--block", type=int, help="corpus block index as left operand")
    p.add_argument("--nu", help="measure file for the right operand")
    p.add_argument("--hull", action="store_true", help="distance to the target hull")
    p.add_argument("--levels", type=int, help="truncation depth")

    p = sub.add_parser("tile", help="greedy quasitiling of the window")
    p.add_argument("--sides", type=int, nargs="+", help="box tile sides")
    p.add_argument("--eps", default="1/10", help="covering target 1-eps")

    p = sub.add_parser("construct", help="staged replacement run")
    p.add_argument("--block", type=int, default=0, help="initial corpus block")

    sub.add_parser("verify", help="run the bound suites")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = None
        if args.config is not None:
            cfg = ExperimentConfig.load(args.config, seed_override=args.seed)
        if args.command == "verify":
            rundir = (
                _run_dir(cfg, args.out)
                if cfg is not None
                else Path(args.out) / "run-verify"
            )
            rundir.mkdir(parents=True, exist_ok=True)
            return cmd_verify(cfg, args, rundir)
        if cfg is None:
            raise ConfigError(f"{args.command} requires --config")
        rundir = _run_dir(cfg, args.out)
        handlers = {
            "gen": cmd_gen,
            "blocks": cmd_blocks,
            "freq": cmd_freq,
            "measure": cmd_measure,
            "dist": cmd_dist,
            "tile": cmd_tile,
            "construct": cmd_construct,
        }
        return handlers[args.command](cfg, args, rundir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
