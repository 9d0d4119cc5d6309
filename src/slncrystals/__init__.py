"""Combinatorial models for affine sl_n crystals.

Partitions with ribbon moves, multi-row bead configurations, and cylindric
plane partitions, together with the bijections between them, the perfect
crystal path model, and exact q-series for the cylinder partition function.
"""

from .partitions import (
    BeadRow,
    Partition,
    add_ribbon,
    addable_ribbons,
    combine_quotient,
    ell_core,
    ell_quotient,
    removable_ribbons,
    remove_ribbon,
)
from .abacus import (
    AbacusConfig,
    DominantWeight,
    compactify,
    enumerate_descending,
    enumerate_tight,
    gamma,
    gl_move,
    highest_weight,
    highest_weight_config,
    is_descending,
    is_tight,
    lambda_part,
    loosen,
    recombine,
    tighten,
    weight,
)
from .crystal import (
    crystal_graph,
    e_abacus,
    e_descending,
    e_partition,
    eps_phi,
    f_abacus,
    f_descending,
    f_partition,
    graph_to_dot,
    signature_reduce,
    wt,
)
from .cylindric import (
    CylindricPlanePartition,
    cpp_weight,
    dual_weight,
    e_cpp,
    f_cpp,
    from_abacus,
    hw_of_cpp,
    is_valid_cpp,
    reflect,
    to_abacus,
)
from .kyoto import (
    Path,
    PerfectElem,
    e_path,
    e_perfect,
    f_path,
    f_perfect,
    from_path,
    ground_state_path,
    to_path,
)
from .qseries import (
    Boundary,
    QSeries,
    Z_borodin,
    Z_bruteforce,
    Z_rep,
    boundary_of,
    dimq_crystal,
    euler_inverse,
)

__version__ = "0.1.0"
