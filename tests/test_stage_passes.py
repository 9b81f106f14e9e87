"""Each stage job runs once: the far mass after a stage comes from the same
tile pass, congruence is checked in one pass, and the construct and census
run trees are pinned to the byte."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

from blockdyn.construction import stage_transform
from blockdyn.group import Shape, folner_box, invariance_ratio, point_add
from blockdyn.measures import ConvexTarget, CylinderMeasure
from blockdyn.quasitiling import Quasitiling, congruent, encode_symbolic, greedy_tile, verify
from blockdyn.symbolic import AlphabetStack, Block, sample_bernoulli
from helpers import enumerate_full_family, far_mass, run_digests, write_seeded_corpus

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
        assert report.far_mass_after == far_mass(out, tiling, target, delta, FAMILIES)
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
        assert rep.covered_fraction == Fraction(len(covered), len(window))
        assert rep.disjoint == (sum(map(len, cells)) == len(covered))
        assert rep.invariance_ratios == tuple(
            invariance_ratio(s, folner_box(1, window.dim)) for s in coarse.shapes
        )
        got = congruent(coarse, fine)
        assert got == pairwise_congruent(coarse, fine), (coarse, fine)
        seen["overlap"] += not rep.disjoint
        seen["repeat"] += len(set(cells)) < len(cells)
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


def bernoulli_measure_obj(p: Fraction, dim: int = 1) -> dict:
    masses = []
    for key in product((0, 1), repeat=3**dim):
        mass = Fraction(1)
        for x in key:
            mass *= p if x else 1 - p
        masses.append({"pattern": [list(key)], "mass": str(mass)})
    return {
        "kind": "measure", "dim": dim, "alphabet": [2], "depth": 1,
        "base_min": [-1] * dim, "base_max": [1] * dim, "masses": masses,
    }


# SHA-256 of the construct run tree below; stage reports, change logs, the
# manifest, the final block and the printed line must not move by a byte.
CONSTRUCT_DIGESTS = {
    "changes_t1.json": "4155284d3ee81f1b8a1fdb7da826a5f5792455a15bee264eb4ffb9b14b5309ac",
    "changes_t2.json": "a74545d54434957ada22cf23189c24397772d52bcf12a51f2657ad64c8382c3a",
    "changes_t3.json": "9a76e5f52392815b2ab22db35203fdff9cb56ed48e2df077468ca38d9e0f5744",
    "final_block.json": "5b8c40de4e3b29cc797f5f84b5c5ef909ee199af1c9768afc1b5506e927ddfb6",
    "run_manifest.json": "bcd2869aa7affa190e4b83534d01958e6cefb9c8b14e70dd5d18f42f4ec84740",
    "stage_t1_tiles.csv": "bbc3e5bab9d5f005c94b76b56f462d539f3fe93fa9823abc9ccdd67dea10779b",
    "stage_t2_tiles.csv": "995e2795dd1175c704dd7156b428b1cbcab0f1f6cd91ae50685be528957331fe",
    "stage_t3_tiles.csv": "88e3ce307674bc6f71dcc3ddb0c275503c8ef6cd2c0d30ad7bfadf25029cfe48",
    "stages.csv": "0d1158e9e68175d5371bbf733e7ea9f32a639acd9adc64dd1728c36b656505d3",
    "stdout": "6dbb493957fb85a9d5d585edcf7ec0de9a757cfb0e929540a509d27f793fd316",
}


def run_tree_digests(tmp_path, dim: int, cells: int, row: list[int], sides: list[int]) -> dict:
    """``run_digests`` of a seeded three-stage ``construct`` run from ``row`` on the box window
    [0, cells - 1]^dim, with three Bernoulli vertices on [-1, 1]^dim."""
    corpus = {
        "kind": "corpus", "dim": dim, "alphabet": [2],
        "blocks": [{"min": [0] * dim, "max": [cells - 1] * dim, "depth": 1, "rows": [row]}],
    }
    (tmp_path / "corpus.json").write_text(json.dumps(corpus))
    for i, p in enumerate([Fraction(1, 20), Fraction(1, 2), Fraction(19, 20)]):
        (tmp_path / f"v{i}.json").write_text(json.dumps(bernoulli_measure_obj(p, dim)))
    cfg = {
        "dim": dim,
        "alphabet": [2],
        "window": {"min": [0] * dim, "max": [cells - 1] * dim},
        "corpus": ["corpus.json"],
        "target_vertices": ["v0.json", "v1.json", "v2.json"],
        "schedule": {
            "eps1": "2/5", "depths": [1, 1, 1],
            "folner_indices": [1, 1, 1], "tile_sides": sides,
        },
        "representatives": {"source": "vertex", "vertex": 0, "count": 4},
        "seed": 1,
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    return run_digests(tmp_path / "runs", [["--config", str(tmp_path / "config.json"), "construct"]])


def test_construct_run_tree_is_pinned(tmp_path):
    rng = random.Random("construct:1")
    row = [1 if rng.random() < 0.5 else 0 for _ in range(729)]
    assert run_tree_digests(tmp_path, 1, 729, row, [3, 9, 27]) == CONSTRUCT_DIGESTS


# The same for a planar run, captured before stage tilings were placed by
# arithmetic: a 26 x 26 window leaves an uncovered margin at every stage, and
# the vertices' base [-1, 1]^2 does not start at the origin, so the sampled
# representatives place it from the first anchor inside each tile.
CONSTRUCT_DIGESTS_2D = {
    "changes_t1.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "changes_t2.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "changes_t3.json": "52bc09bc6d897104070f909ec98f09993e53a903c2145ee889b9081e0cc8c942",
    "final_block.json": "e0cec8a7ba08605b63321f17d8ede1e0032b58e9e0be115ef983415026621831",
    "run_manifest.json": "ea764fe92b1703dcfd4971cedc04a1d01cab1c02330a05d0b6e03684fa840110",
    "stage_t1_tiles.csv": "5dcea390e987706dc96adcbd7cd5c1f25a7145d2b28ec3982a0fa64a1c7eadff",
    "stage_t2_tiles.csv": "a364460702ba873731e0626a8f4bf385bb0d8820f857e5920ed50e789570b7dd",
    "stage_t3_tiles.csv": "ad91215de61a60e64db25515212ef64c6157c6d3dc8445555a76abae34071e21",
    "stages.csv": "cf895f0a2f320f6417e04f77f923d9005967debdbbbdbcb9721131601b4c19b3",
    "stdout": "8d0f2b8ad1dff0ce207fd9e167ec562f56fceaf35ddf507d4af447701c075e8f",
}


def test_planar_construct_run_tree_is_pinned(tmp_path):
    # A noisy checkerboard, far from every Bernoulli measure on most tiles.
    rng = random.Random("construct:2")
    row = [(x + y) % 2 ^ (rng.random() < 0.1) for x, y in product(range(26), repeat=2)]
    assert run_tree_digests(tmp_path, 2, 26, row, [3, 6, 12]) == CONSTRUCT_DIGESTS_2D


def census_digests(tmp_path, dim: int, side: int, sizes: list[int], seed: str) -> dict:
    """``run_digests`` of ``blocks``, ``freq`` and ``measure`` at levels 1
    and 2, on one seeded uniform block over ``sizes`` on the box window
    [0, side - 1]^dim."""
    write_seeded_corpus(tmp_path, dim, side, sizes, random.Random(seed))
    config = ["--config", str(tmp_path / "config.json")]
    commands = [
        config + command + [level]
        for level in ("1", "2")
        for command in (["blocks", "--level"], ["freq", "--level"], ["measure", "--depth"])
    ]
    # The measure job prints its output path, which run_digests spells "runs".
    return run_digests(tmp_path / "runs", commands)


# SHA-256 of the census run trees below, captured before family and measure
# entries were written from one template and freq patterns from one format
# per level.  The 1-D stack (2, 12) has a row of size above 10 at level 2,
# so its freq patterns join two-digit symbols with "-".
CENSUS_DIGESTS_1D = {
    "family_k1.json": "87c76bff38c0279cfbc71e846c488dd911b35278de9a8aa9088d1d4f1b0f72e9",
    "family_k2.json": "8471708b92f5c2179d6d5ef8af5c53f07f2afd6c0c2734f2081b19de17b244bd",
    "freq_k1_b0.csv": "e8b777db944503d55a0032f579d2bb93d5b420ac254577a410f249ae213eea54",
    "freq_k2_b0.csv": "52e6a0b8061f8c2637764b53c9a427c22b22df61990d5da08044079e65708100",
    "measure_b0_j1.json": "af20fafb6addc012551ea3ec9ecbf093e2ccab0b842b151ac27092b35d30d2e7",
    "measure_b0_j2.json": "a087bdb0c1de736b1be17690f6fe6ba9cf132eaa662715ab0ddf76d6f160231e",
    "stdout": "fe2f39e1f4160c92a636aadbdc96e4956ad363244d8b2a85d7b1df9f63c5ffc5",
}

CENSUS_DIGESTS_2D = {
    "family_k1.json": "495ec37e46fd3105c8959af1e00d1b11225d5f26d11006033e20a161ac19777c",
    "family_k2.json": "cf6c11ce47a00bda7b95fd20779a78097c5404e38929dd1bc3df853948bc211b",
    "freq_k1_b0.csv": "207d6d9c8d4993af4653f4f99ae4e1b3b29f91a7d940be4f666a3d5d416c0640",
    "freq_k2_b0.csv": "28addf1ae163590789d306a16cbb5df2be873042935d9833f1c7fe91f7d6459a",
    "measure_b0_j1.json": "f29adfec8505cca5d92895416af5481148e137464d98737f73fda284e84592ae",
    "measure_b0_j2.json": "13942352b5f554d6c1c5f49763450c1e23a7f34b5918f291d644ad3747c92fbc",
    "stdout": "b07a98eb77e4265e5577ef9f5e138d325a47ca06e8337ba6da6af269068ce8a8",
}


def test_census_run_tree_is_pinned(tmp_path):
    assert census_digests(tmp_path, 1, 80, [2, 12], "census:1d") == CENSUS_DIGESTS_1D


def test_planar_census_run_tree_is_pinned(tmp_path):
    assert census_digests(tmp_path, 2, 8, [3, 2], "census:2d") == CENSUS_DIGESTS_2D
