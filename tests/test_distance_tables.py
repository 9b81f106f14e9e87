"""The distance layer reads tables: every value it compares comes from one
frequency table or one marginal per operand and level, a stage solves each
distinct tile content once, and ``far_mass`` solves every tile on its own."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

from blockdyn import construction
from blockdyn.construction import stage_transform
from blockdyn.group import Shape
from blockdyn.measures import (
    ConvexTarget,
    CylinderMeasure,
    block_measure,
    dist,
    dist_to_hull,
)
from blockdyn.quasitiling import greedy_tile
from blockdyn.symbolic import (
    AlphabetStack,
    Block,
    Corpus,
    enumerate_family,
    sample_bernoulli,
)
from blockdyn.testkit import grid_hull_distance, oracle_freq, oracle_measure_value
from blockdyn.verification import SUPPORT, _families_for, _random_measure
import helpers
from helpers import enumerate_full_family, far_mass, run_digests, write_seeded_corpus

F1 = Shape.interval(-1, 1)


def oracle_value(x, pattern):
    if isinstance(x, Block):
        return oracle_freq(x, pattern)
    return oracle_measure_value(x, pattern)


def oracle_level_term(x, nu, family):
    total = sum(abs(oracle_value(x, b) - oracle_measure_value(nu, b)) for b in family.blocks)
    return Fraction(total) / len(family.blocks)


def oracle_objective(x, target, families, weights):
    total = Fraction(0)
    for fam in families:
        coeff = Fraction(1, 2**fam.level * len(fam.blocks))
        for b in fam.blocks:
            acc = oracle_value(x, b)
            for w, v in zip(weights, target.vertices):
                acc -= w * oracle_measure_value(v, b)
            total += coeff * abs(acc)
    return total


def _instances():
    """Seeded (block, measure, nu, target, families) on the stack (2, 2)."""
    rng = random.Random(8)
    out = []
    for n in range(4):
        measures = [_random_measure(rng, SUPPORT) for _ in range(4)]
        window = Shape.interval(0, rng.randint(12, 30))
        block = sample_bernoulli(window, AlphabetStack((2, 2)), [[0.5, 0.5]] * 2, seed=n)
        target = ConvexTarget(tuple(measures[2:]))
        out.append((block, measures[0], measures[1], target, _families_for(measures)))
    return out


@pytest.mark.parametrize("x_kind", ["block", "measure"])
def test_distances_never_call_value_and_equal_the_oracles(x_kind):
    # A measure has no per-pattern value method; the distances read tables.
    for block, mu, nu, target, fams in _instances():
        x = block if x_kind == "block" else mu
        levels = tuple(oracle_level_term(x, nu, fam) for fam in fams)
        assert dist(x, nu, fams).levels == levels
        hd = dist_to_hull(x, target, fams)
        assert hd.value == oracle_objective(x, target, fams, hd.weights)
        assert hd.value <= grid_hull_distance(x, target, fams, Fraction(1, 8))


def test_a_measure_on_another_alphabet_stack_is_refused():
    fams = [enumerate_full_family(AlphabetStack((2,)), 1, 1)]
    binary = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (0, 1, 0)): Fraction(1)})
    ternary = CylinderMeasure(1, F1, {Block(F1, 1, (3,), (0, 1, 0)): Fraction(1)})
    with pytest.raises(ValueError, match="alphabet stack"):
        dist(binary, ternary, fams)
    with pytest.raises(ValueError, match="alphabet stack"):
        dist(ternary, binary, fams)
    with pytest.raises(ValueError, match="alphabet stack"):
        dist_to_hull(binary, ConvexTarget((ternary,)), fams)
    with pytest.raises(ValueError, match="alphabet stack"):
        dist_to_hull(ternary, ConvexTarget((binary,)), fams)


def test_a_block_on_another_alphabet_stack_is_refused():
    fams = [enumerate_full_family(AlphabetStack((2,)), 1, 1)]
    ternary = Block(Shape.interval(0, 6), 1, (3,), (0, 1, 2, 0, 1, 1, 0))
    binary = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (0, 1, 0)): Fraction(1)})
    with pytest.raises(ValueError, match="alphabet stack mismatch"):
        dist(ternary, binary, fams)
    with pytest.raises(ValueError, match="alphabet stack mismatch"):
        dist_to_hull(ternary, ConvexTarget((binary,)), fams)


def test_a_family_deeper_than_an_operand_is_refused_alike_for_blocks_and_measures():
    stack = AlphabetStack((2, 2))
    block = sample_bernoulli(Shape.interval(0, 20), stack, [[0.5, 0.5]] * 2, seed=4)
    fams = [enumerate_family(Corpus(stack, (block,)), k) for k in (1, 2)]
    deep = block_measure(block, 2)
    shallow_block = Block(block.shape, 1, (2,), block.symbols[: len(block.shape)])
    shallow = block_measure(shallow_block, 1)
    message = "family level 2 exceeds the operand depth 1"
    for x, nu in [(shallow_block, deep), (shallow, deep), (block, shallow), (deep, shallow)]:
        for measure, y in ((dist, nu), (dist_to_hull, ConvexTarget((nu,)))):
            with pytest.raises(ValueError) as info:
                measure(x, y, fams)
            assert str(info.value) == message


def _point_mass_target() -> ConvexTarget:
    return ConvexTarget(
        tuple(
            CylinderMeasure(1, F1, {Block(F1, 1, (2,), key): Fraction(1)})
            for key in [(0, 0, 0), (1, 1, 1)]
        )
    )


def _counting(monkeypatch) -> list:
    """Replace the hull solve seen by ``construction`` and by the ``far_mass``
    oracle of the helpers with a counting one."""
    calls = []

    def counted(x, target, families):
        calls.append((x.shape, x.symbols))
        return dist_to_hull(x, target, families)

    monkeypatch.setattr(construction, "dist_to_hull", counted)
    monkeypatch.setattr(helpers, "dist_to_hull", counted)
    return calls


def test_a_stage_solves_each_distinct_tile_content_once(monkeypatch):
    calls = _counting(monkeypatch)
    shape = Shape.interval(0, 2)
    window = Shape.interval(0, 11)
    words = [(0, 1, 0), (1, 1, 1), (0, 1, 0), (1, 0, 1)]
    config = Block(window, 1, (2,), sum(words, ()))
    tiling = greedy_tile(window, [shape], Fraction(1)).tiling
    rep = Block(shape, 1, (2,), (0, 1, 0))  # the content of two far tiles
    fams = [enumerate_full_family(AlphabetStack((2,)), 1, 1)]
    out, report = stage_transform(
        config, tiling, _point_mass_target(), Fraction(1, 50), {shape: rep}, fams
    )
    assert rep in [ch.before for ch in report.changes]
    assert report.far_mass_after > 0
    assert sorted(calls) == sorted(set(calls)) == sorted({(shape, w) for w in words})


def test_far_mass_solves_every_tile_without_a_cache(monkeypatch):
    calls = _counting(monkeypatch)
    window = Shape.interval(0, 17)
    config = Block(window, 1, (2,), (0, 1, 0) * 6)
    tiling = greedy_tile(window, [Shape.interval(0, 2)], Fraction(1)).tiling
    fams = [enumerate_full_family(AlphabetStack((2,)), 1, 1)]
    target = _point_mass_target()
    assert far_mass(config, tiling, target, Fraction(1, 50), fams) == 1
    assert len(calls) == tiling.tile_count() == 6


def _window_pattern(rows, side, dim, anchor):
    """The rows of the cells anchor + [-2, 2]^dim of a block on
    [0, side - 1]^dim, each row in lexicographic cell order."""
    cells = [
        sum(c * side**(dim - 1 - i) for i, c in enumerate(point))
        for point in product(*(range(a - 2, a + 3) for a in anchor))
    ]
    return [[row[c] for c in cells] for row in rows]


DIST_JOBS = {
    "block-nu": ["--block", "0", "--nu", "v0.json"],
    "block-nu-1": ["--block", "0", "--nu", "v1.json", "--levels", "1"],
    "mu-nu": ["--mu", "mu.json", "--nu", "v2.json"],
    "nu-mu": ["--mu", "v2.json", "--nu", "mu.json"],
    "hull": ["--block", "0", "--hull"],
    "hull-1": ["--block", "0", "--hull", "--levels", "1"],
    "mu-hull": ["--mu", "mu.json", "--hull"],
}


def dist_digests(tmp_path, dim: int, side: int, sizes: list[int], seed: str) -> dict:
    """``run_digests`` of each ``DIST_JOBS`` job, keyed by job, on one seeded
    block over ``sizes`` on [0, side - 1]^dim and four depth-2 measures, each
    mixing windows of the block with random patterns."""
    rng = random.Random(seed)
    vertices = ["v0.json", "v1.json", "v2.json"]
    rows = write_seeded_corpus(tmp_path, dim, side, sizes, rng, target_vertices=vertices)
    for name in ("v0", "v1", "v2", "mu"):
        patterns = {}
        for _ in range(6):
            anchor = [rng.randrange(2, side - 2) for _ in range(dim)]
            patterns[json.dumps(_window_pattern(rows, side, dim, anchor))] = rng.randint(1, 9)
        for _ in range(3):
            pattern = [[rng.randrange(size) for _ in range(5**dim)] for size in sizes]
            patterns[json.dumps(pattern)] = rng.randint(1, 9)
        total = sum(patterns.values())
        measure = {
            "kind": "measure", "dim": dim, "alphabet": sizes, "depth": 2,
            "base_min": [-2] * dim, "base_max": [2] * dim,
            "masses": [
                {"pattern": json.loads(p), "mass": str(Fraction(w, total))}
                for p, w in sorted(patterns.items())
            ],
        }
        (tmp_path / f"{name}.json").write_text(json.dumps(measure))
    digests = {}
    for label, options in DIST_JOBS.items():
        options = [str(tmp_path / o) if o.endswith(".json") else o for o in options]
        argv = ["--config", str(tmp_path / "config.json"), "dist"] + options
        for name, digest in run_digests(tmp_path / label, [argv]).items():
            digests[f"{label}/{name}"] = digest
    return digests


# SHA-256 of the dist and verify run trees above, captured before blocks and
# measures were measured through one ``dist``: a block and a measure against
# a measure, at both levels and truncated at one, and against the hull.
DIST_DIGESTS_1D = {
    "block-nu-1/dist.csv": "52449a5b51b34f07db3414e275b84a100aa3fd1ee78deb16a63f83b3d0fe668d",
    "block-nu-1/stdout": "34995e89e46d6dff44bf8aa35ce9ee22d22e48a108f78c99dfbec7fe7e0db31d",
    "block-nu/dist.csv": "ebe4e09235c3f8e5713f89f7defd55085bbe228fb64c70805dd7f120bd66a498",
    "block-nu/stdout": "1c41ce0b65b78dfccea9f4e0978993590f35bfe48c2c1c48509d970c77a6a89b",
    "hull-1/dist.csv": "49223f6bb7c446e9d8f18c50742b240e6c57a4945ca2ee19981da2930fad85cc",
    "hull-1/stdout": "d221f264a6244844f5ae1dcf105cc853e6070f7d5589fa4e56f2debc25fd8342",
    "hull/dist.csv": "bd7266537825d039cc4d95148cf1260018d40796bb41b9878801608ea51d8efd",
    "hull/stdout": "7f3496be45738ed7ace6c89f09c73dc0d4763d32f877d064b86bc7a069d97db6",
    "mu-hull/dist.csv": "3a80be9b1ab6ce0a0307814c08f8ceea1a307f351fa40e922557b87047b61c51",
    "mu-hull/stdout": "1cfc1f71ec45c1327e992f1553b13c94979343588f7837162fe56a7fe1c3b2de",
    "mu-nu/dist.csv": "e76ceaaca0a962e542e003f29f68f13963d0b62d4ff763d9009d050edc66308a",
    "mu-nu/stdout": "fa5706efd67321dd47f5b6180163a7438220dcc80f9c8fc05fc58d876aac4e13",
    "nu-mu/dist.csv": "e76ceaaca0a962e542e003f29f68f13963d0b62d4ff763d9009d050edc66308a",
    "nu-mu/stdout": "fa5706efd67321dd47f5b6180163a7438220dcc80f9c8fc05fc58d876aac4e13",
}

DIST_DIGESTS_2D = {
    "block-nu-1/dist.csv": "65fd073928c208f65bfca4a598ed12afbb1db4012b67da51e487f843b129ba53",
    "block-nu-1/stdout": "9fd5fe03bbedff42b76b4a3b9d6b986157feb9ebc9d3b70cbc022eac7df5a6a2",
    "block-nu/dist.csv": "c881c9259c813d3162b4794b43b335fcf00508a70c342f6c11e7c91f82daa22c",
    "block-nu/stdout": "bcc0f33d5d66e4f78ab45c56f2f86d30c17aec6d8a8dfd255939901bc72cd5be",
    "hull-1/dist.csv": "a60da20bb4aa132d77387eeb4074c37e6c6929624463c0fdd1b379631bf3dca3",
    "hull-1/stdout": "e4d2b22c1171d44f1e0ff65187e590fc8510103cb5bb7c2179e259896a4e08c0",
    "hull/dist.csv": "356708a0b343ea6e4179340aab7ba9d51d126d581380b53fe6540b849a280286",
    "hull/stdout": "699f100132a466fd38a4e55716022caeb5c114483b9a200ce3366836d591a162",
    "mu-hull/dist.csv": "552a2040dd3b1a87f9c52ef06eccee989fb4f0880baa09185cc8fa7ad89b21c6",
    "mu-hull/stdout": "7a571c2589071d8ee54c683d6c607989af030811acae83f7f18d6aeff9ee37f6",
    "mu-nu/dist.csv": "031d4b6fb6af0f0253696c239f6e4ebed53d2e3ad9f033946b1760fe3f948dc0",
    "mu-nu/stdout": "052a10b0ba9aaaa5e8bae6262ecac9ae54ba1d0e98720eb5d437ebd9291c09c0",
    "nu-mu/dist.csv": "031d4b6fb6af0f0253696c239f6e4ebed53d2e3ad9f033946b1760fe3f948dc0",
    "nu-mu/stdout": "052a10b0ba9aaaa5e8bae6262ecac9ae54ba1d0e98720eb5d437ebd9291c09c0",
}

VERIFY_DIGESTS = {
    "stdout": "d3ce2324019e5b4dae580d8579e78fe5551e1ef4bd4317af1b68d48dc91876e6",
    "verify_block_measure_gap.csv": "425a0f99929b84fbf4c82aa91018a48283707b7f3afcc65f3e70f5e8f041b957",
    "verify_metric_axioms.csv": "70c07c77e56dfdc6e18edcb5b17d88c9fc7b85703e4ea3eb53b299583bacd996",
    "verify_tiling_average_gap.csv": "d480250ef5ae24339d94b379518d78562f6b723837d105ae8e94f6ad8fcbac2d",
}


def test_dist_run_trees_are_pinned(tmp_path):
    assert dist_digests(tmp_path, 1, 40, [2, 3], "dist:1d") == DIST_DIGESTS_1D


def test_planar_dist_run_trees_are_pinned(tmp_path):
    assert dist_digests(tmp_path, 2, 9, [3, 2], "dist:2d") == DIST_DIGESTS_2D


def test_verify_run_tree_is_pinned(tmp_path):
    assert run_digests(tmp_path / "runs", [["--seed", "1", "verify"]]) == VERIFY_DIGESTS
