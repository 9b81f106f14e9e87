"""Computational symbolic dynamics over Z^d.

Block frequencies, empirical cylinder measures, weak-star distances with
certified tails, quasitilings of finite windows and a staged, invertible
block-replacement transform, all in exact rational arithmetic.
"""

import types

from .group import (
    BanachDensity,
    FolnerBox,
    PeriodicSubset,
    Shape,
    banach_density,
    boundary_part,
    folner_box,
    invariance_ratio,
    is_invariant,
    is_tempered_prefix,
    shape_product,
    translate,
)
from .symbolic import (
    AlphabetStack,
    Block,
    BlockFamily,
    Corpus,
    block_translate,
    enumerate_family,
    enumerate_full_family,
    restrict,
    sample_bernoulli,
    subblock_at,
)
from .frequency import (
    count_embeddings,
    count_occurrences,
    find_typical_block,
    freq,
    freq_table,
)
from .measures import (
    ConvexTarget,
    CylinderMeasure,
    DistanceInterval,
    HullDistance,
    block_measure,
    dist,
    dist_block,
    dist_k,
    dist_to_hull,
    mix,
    tail_depth,
)
from .quasitiling import (
    Quasitiling,
    congruent,
    decode_symbolic,
    encode_symbolic,
    greedy_tile,
    verify,
)
from .construction import (
    StageSchedule,
    apply_changes,
    far_mass,
    run,
    select_representative,
    stage_transform,
)

__version__ = "0.1.0"

# The public names are the ones imported above.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
