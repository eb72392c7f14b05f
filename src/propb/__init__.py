"""Exact workbench for 2-colourability of non-uniform hypergraphs.

The central quantity is the dyadic weight q(H) = sum over edges of
2**(-|e|).  The package builds the known small extremal hypergraphs, the
16-vertex example of weight 95/64, and randomized constructions whose weight
grows like n**2; every reported number is exact integer or dyadic/rational
arithmetic, checked by exhaustive enumeration where feasible.

Only the standard library is imported at run time.  Importing `propb` and
`propb.cli` loads neither `dataclasses` (see `core._Value`) nor `fractions`:
`fractions` is imported where a `Fraction` is built, in `mono_probability`,
`expected_survivor_count` and `DyadicValue.as_fraction`, and no command
builds one.  Under `python -I` on Python 3.11, with `site` already holding
`typing`, `pathlib` and `random`, the import adds only `argparse`, `gettext`
and `__future__`.
"""

from propb.alteration import (
    AlterationParams,
    RetriesExhaustedError,
    balanced_probability,
    derive_seed,
    erdos_edge_count,
    expected_survivor_count,
    halved_edge_count,
    mono_probability,
    run_alteration,
    sample_uniform_edges,
)
from propb.analysis import (
    design_check,
    is_edge_critical,
    verify_paper_example,
)
from propb.colouring import (
    Colouring,
    enumerate_proper,
    is_proper,
    is_two_colourable,
    monochromatic_edges,
    pair_opposites,
)
from propb.constructions import (
    affine_plane_gf4,
    derive_h8,
    fano,
    paper_example,
    seymour_toft,
    triangle,
)
from propb.core import (
    DyadicValue,
    Hypergraph,
    binomial,
    make_hypergraph,
    min_edge_size,
    q_value,
    union,
)
from propb.formats import DocumentError, check_line, parse, serialize

__version__ = "0.1.0"

__all__ = [
    "AlterationParams",
    "Colouring",
    "DocumentError",
    "DyadicValue",
    "Hypergraph",
    "RetriesExhaustedError",
    "affine_plane_gf4",
    "balanced_probability",
    "check_line",
    "binomial",
    "derive_h8",
    "derive_seed",
    "design_check",
    "enumerate_proper",
    "erdos_edge_count",
    "expected_survivor_count",
    "fano",
    "halved_edge_count",
    "is_edge_critical",
    "is_proper",
    "is_two_colourable",
    "make_hypergraph",
    "min_edge_size",
    "mono_probability",
    "monochromatic_edges",
    "paper_example",
    "pair_opposites",
    "parse",
    "q_value",
    "run_alteration",
    "sample_uniform_edges",
    "serialize",
    "seymour_toft",
    "triangle",
    "union",
    "verify_paper_example",
]
