"""Computational symbolic dynamics over Z^d.

Block frequencies, empirical cylinder measures, weak-star distances with
certified tails, quasitilings of finite windows and a staged, invertible
block-replacement transform, all in exact rational arithmetic.

The public names below are imported from their modules on first read
(PEP 562), so ``import blockdyn`` loads no module, and reading a file
loads no stage or tiling code; ``from blockdyn import *`` binds the same
objects as importing each from its module.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each public name.
_HOME = {
    name: module
    for module, names in (
        ("group", "Shape folner_box invariance_ratio shape_product translate"),
        (
            "symbolic",
            "AlphabetStack Block BlockFamily Corpus decode_pattern encode_pattern"
            " enumerate_family sample_bernoulli subblock_at",
        ),
        ("frequency", "count_embeddings freq freq_table"),
        (
            "measures",
            "ConvexTarget CylinderMeasure DistanceInterval HullDistance block_measure dist"
            " dist_to_hull mix tail_depth",
        ),
        ("quasitiling", "Quasitiling congruent decode_symbolic encode_symbolic greedy_tile verify"),
        ("files", "StageSchedule"),
        ("construction", "apply_changes run select_representative stage_transform"),
    )
    for name in names.split()
}
__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
