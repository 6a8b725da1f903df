"""Statistic generating polynomials over pattern-avoiding permutations.

A library and command line tool for enumerating avoidance sets, computing
inversion and major-index generating polynomials exactly, classifying
equidistribution among pattern sets, and checking every identity against
independent brute force.
"""

from .engine import (
    AvoidanceQuery,
    EquivalenceReport,
    Profile,
    SearchCancelled,
    classify,
    count_avoiders,
    enumerate_avoiders,
    mahonian_pair_check,
    maj_des_poly,
    stat_multiset,
    stat_poly,
)
from .formulas import (
    CLOSED_FORMS,
    SERIES_IDS,
    ParityProfile,
    c_poly,
    catalan,
    closed_form,
    ct_poly,
    fibonacci,
    i312_recursive,
    i321_conjectured,
    m312_recursive,
    parity_profile,
    series_expand,
)
from .perms import (
    EMPTY,
    INV_PRESERVING,
    INV_REVERSING,
    SYMMETRIES,
    Perm,
    apply_symmetry,
    avoids_all,
    complement,
    compose_symmetries,
    contains,
    des,
    descent_set,
    format_perm,
    inflate,
    inv,
    inverse,
    inversion_set,
    maj,
    named_family,
    parse_perm,
    perm,
    reverse,
)
from .polynomials import (
    QPoly,
    QTPoly,
    TruncatedSeries,
    pochhammer,
    q_int,
)
from .words import (
    Word,
    beta_of,
    durfee,
    foata,
    foata_inverse,
    from_durfee,
    lambda_of,
    rho_of,
    word_stats,
)

__version__ = "0.1.0"
