"""Each stage job runs once: the far mass after a stage comes from the same
tile pass, congruence is checked in one pass, and the construct run tree is
pinned to the byte."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from blockdyn import cli
from blockdyn.construction import far_mass, stage_transform
from blockdyn.group import Shape, point_add
from blockdyn.measures import ConvexTarget, CylinderMeasure
from blockdyn.quasitiling import Quasitiling, congruent, encode_symbolic, greedy_tile, verify
from blockdyn.symbolic import AlphabetStack, Block, enumerate_full_family, sample_bernoulli

STACK = AlphabetStack((2,))
F1 = Shape.interval(-1, 1)
FAMILIES = [enumerate_full_family(STACK, 1, 1)]


def bernoulli_target() -> ConvexTarget:
    """Exact Bernoulli(1/10) and Bernoulli(9/10) measures on F_1."""
    vertices = []
    for p in (Fraction(1, 10), Fraction(9, 10)):
        masses = {}
        for key in product((0, 1), repeat=3):
            mass = Fraction(1)
            for x in key:
                mass *= p if x else 1 - p
            masses[Block(F1, 1, (2,), key)] = mass
        vertices.append(CylinderMeasure(1, F1, masses))
    return ConvexTarget(tuple(vertices))


def test_far_mass_after_equals_far_mass_of_the_output():
    target = bernoulli_target()
    rng = random.Random(4)
    shapes = (Shape.interval(0, 5), Shape.interval(0, 2))
    seen = {"far_after": 0, "partial": 0, "both_shapes": 0, "replaced": 0}
    for n in range(60):
        window = Shape.interval(0, rng.randint(14, 40))
        config = sample_bernoulli(window, STACK, [[0.5, 0.5]], seed=n)
        full = greedy_tile(window, list(shapes), Fraction(1)).tiling
        # Drop some tiles so that the window is only partly covered.
        centers = tuple(
            frozenset(c for c in cents if rng.random() < 0.8) for cents in full.centers
        )
        tiling = Quasitiling(window, shapes, centers)
        reps = {
            s: sample_bernoulli(s, STACK, [[0.5, 0.5]], seed=1000 + 2 * n + i)
            for i, s in enumerate(shapes)
        }
        delta = rng.choice([Fraction(1, 50), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)])
        out, report = stage_transform(config, tiling, target, delta, reps, FAMILIES)
        assert report.far_mass_after == far_mass(out, tiling, target, delta, FAMILIES, 1)
        seen["far_after"] += report.far_mass_after > 0
        seen["partial"] += report.covered_fraction < 1
        seen["both_shapes"] += len({ch.shape_index for ch in report.changes}) == 2
        seen["replaced"] += bool(report.changes)
    assert all(count >= 5 for count in seen.values()), seen


def tile_cells(tiling: Quasitiling) -> list[frozenset]:
    """Each tile's cells, translated point by point, ordered by center then
    shape index."""
    pairs = sorted((c, i) for i, cents in enumerate(tiling.centers) for c in cents)
    return [
        frozenset(tuple(x + y for x, y in zip(p, c)) for p in tiling.shapes[i].points)
        for c, i in pairs
    ]


def pairwise_congruent(tiling: Quasitiling, previous: Quasitiling) -> bool:
    """The definition: every coarse tile contains or misses every fine tile."""
    coarse, fine = tile_cells(tiling), tile_cells(previous)
    return all(big >= small or not big & small for big in coarse for small in fine)


def random_tiling(rng: random.Random, window: Shape) -> Quasitiling:
    """One or two random shapes with a few centers each, possibly none;
    tiles may overlap."""
    pts = window.sorted_points
    shapes, centers = [], []
    for _ in range(rng.randint(1, 2)):
        shape = Shape.of(rng.sample(pts[:6], rng.randint(1, 4)))
        anchors = [
            c for c in pts if all(point_add(p, c) in window.points for p in shape.points)
        ]
        shapes.append(shape)
        centers.append(frozenset(rng.sample(anchors, min(len(anchors), rng.randint(0, 3)))))
    return Quasitiling(window, tuple(shapes), tuple(centers))


def test_congruent_matches_the_pairwise_definition():
    rng = random.Random(11)
    windows = [Shape.interval(0, 9), Shape.box((0, 0), (3, 3))]
    outcomes = {True: 0, False: 0}
    overlapping = 0
    for _ in range(3000):
        window = rng.choice(windows)
        coarse, fine = random_tiling(rng, window), random_tiling(rng, window)
        got = congruent(coarse, fine)
        assert got == pairwise_congruent(coarse, fine), (coarse, fine)
        outcomes[got] += 1
        cells = tile_cells(coarse)
        overlapping += any(a & b for a, b in zip(cells, cells[1:]))
    assert min(outcomes.values()) >= 300 and overlapping >= 300, (outcomes, overlapping)


def test_verify_and_congruent_match_the_definitions_on_any_window():
    # Box and non-box windows and shapes: box pairs go through the cached
    # row runs, any other pair through one run per cell.
    rng = random.Random(12)
    windows = [
        Shape.interval(0, 9),
        Shape.of([(0,), (1,), (2,), (4,), (5,), (6,), (7,), (9,)]),
        Shape.box((0, 0), (3, 3)),
        Shape.of([p for p in product(range(4), repeat=2) if p != (1, 2)]),
    ]
    seen = {"overlap": 0, "repeat": 0, "congruent": 0, "not congruent": 0}
    for n in range(1200):
        window = windows[n % len(windows)]
        coarse, fine = random_tiling(rng, window), random_tiling(rng, window)
        if n % 3 == 0 and coarse.centers[0]:
            # A translated copy of the first shape covering one of its tiles.
            d = rng.choice([(1,), (-2,)]) * window.dim
            c = min(coarse.centers[0])
            moved = Shape.of([tuple(x + y for x, y in zip(p, d)) for p in coarse.shapes[0].points])
            center = tuple(x - y for x, y in zip(c, d))
            coarse = Quasitiling(
                window, coarse.shapes + (moved,), coarse.centers + (frozenset({center}),)
            )
        cells = tile_cells(coarse)
        covered = frozenset().union(*cells)
        rep = verify(coarse)
        assert rep.covered_cells == len(covered)
        assert rep.disjoint == (sum(map(len, cells)) == len(covered))
        assert rep.unique_representation == (len(set(cells)) == len(cells))
        got = congruent(coarse, fine)
        assert got == pairwise_congruent(coarse, fine), (coarse, fine)
        seen["overlap"] += not rep.disjoint
        seen["repeat"] += not rep.unique_representation
        seen["congruent" if got else "not congruent"] += 1
    assert min(seen.values()) >= 100, seen


def test_congruent_with_empty_center_sets():
    w = Shape.interval(0, 9)
    empty = Quasitiling(w, (Shape.interval(0, 1),), (frozenset(),))
    some = Quasitiling(w, (Shape.interval(0, 2),), (frozenset({(0,), (5,)}),))
    shifted = Quasitiling(w, (Shape.interval(0, 2),), (frozenset({(1,)}),))
    assert congruent(empty, empty)
    assert congruent(some, empty)
    assert congruent(empty, some)
    assert not congruent(some, shifted)


def test_encode_symbolic_rejects_a_center_outside_the_window():
    t = Quasitiling(Shape.interval(0, 9), (Shape.of([(1,), (2,)]),), (frozenset({(-1,)}),))
    with pytest.raises(ValueError, match="outside the window"):
        encode_symbolic(t)


def bernoulli_measure_obj(p: Fraction) -> dict:
    masses = []
    for key in product((0, 1), repeat=3):
        mass = Fraction(1)
        for x in key:
            mass *= p if x else 1 - p
        masses.append({"pattern": [list(key)], "mass": str(mass)})
    return {
        "kind": "measure", "dim": 1, "alphabet": [2], "depth": 1,
        "base_min": [-1], "base_max": [1], "masses": masses,
    }


# SHA-256 of the construct run tree below; stage reports, change logs and
# the final block must not move by a byte.
CONSTRUCT_DIGESTS = {
    "changes_t1.json": "4155284d3ee81f1b8a1fdb7da826a5f5792455a15bee264eb4ffb9b14b5309ac",
    "changes_t2.json": "a74545d54434957ada22cf23189c24397772d52bcf12a51f2657ad64c8382c3a",
    "changes_t3.json": "9a76e5f52392815b2ab22db35203fdff9cb56ed48e2df077468ca38d9e0f5744",
    "final_block.json": "5b8c40de4e3b29cc797f5f84b5c5ef909ee199af1c9768afc1b5506e927ddfb6",
    "stage_t1_tiles.csv": "bbc3e5bab9d5f005c94b76b56f462d539f3fe93fa9823abc9ccdd67dea10779b",
    "stage_t2_tiles.csv": "995e2795dd1175c704dd7156b428b1cbcab0f1f6cd91ae50685be528957331fe",
    "stage_t3_tiles.csv": "88e3ce307674bc6f71dcc3ddb0c275503c8ef6cd2c0d30ad7bfadf25029cfe48",
    "stages.csv": "0d1158e9e68175d5371bbf733e7ea9f32a639acd9adc64dd1728c36b656505d3",
}


def test_construct_run_tree_is_pinned(tmp_path):
    rng = random.Random("construct:1")
    cells = 729
    row = [1 if rng.random() < 0.5 else 0 for _ in range(cells)]
    corpus = {
        "kind": "corpus", "dim": 1, "alphabet": [2],
        "blocks": [{"min": [0], "max": [cells - 1], "depth": 1, "rows": [row]}],
    }
    (tmp_path / "corpus.json").write_text(json.dumps(corpus))
    for i, p in enumerate([Fraction(1, 20), Fraction(1, 2), Fraction(19, 20)]):
        (tmp_path / f"v{i}.json").write_text(json.dumps(bernoulli_measure_obj(p)))
    cfg = {
        "dim": 1,
        "alphabet": [2],
        "window": {"min": [0], "max": [cells - 1]},
        "corpus": ["corpus.json"],
        "target_vertices": ["v0.json", "v1.json", "v2.json"],
        "schedule": {
            "eps1": "2/5", "depths": [1, 1, 1],
            "folner_indices": [1, 1, 1], "tile_sides": [3, 9, 27],
        },
        "representatives": {"source": "vertex", "vertex": 0, "count": 4},
        "seed": 1,
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    out = tmp_path / "runs"
    assert cli.main(["--config", str(tmp_path / "config.json"), "--out", str(out), "construct"]) == 0
    (rundir,) = out.iterdir()
    pinned = ["stages.csv", "final_block.json"] + [
        f"{stem}_t{t}{ext}" for t in (1, 2, 3)
        for stem, ext in (("stage", "_tiles.csv"), ("changes", ".json"))
    ]
    got = {
        name: hashlib.sha256((rundir / name).read_bytes()).hexdigest() for name in pinned
    }
    assert got == CONSTRUCT_DIGESTS
