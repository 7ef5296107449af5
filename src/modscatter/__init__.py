"""Scattering geodesics on the modular surface.

Geodesics that escape to the cusp in both time directions are indexed by
rationals p/q in [0, 1) through the pairing p*p' == -1 (mod q); the one
labelled p/q spends exactly 2*log(q*t0) inside the compact part of the
surface cut at height t0.  This package builds that correspondence exactly,
sieves the associated counting functions against their first-order laws, and
cross-checks the sojourn formula by numerical geodesic flow.
"""

from .arith import (
    Classification,
    CongruenceClass,
    Factorization,
    MemoryBudgetExceeded,
    count_sqrt_minus_one,
    factorize,
    classify,
    hensel_lift,
    sqrt_minus_one_brute,
    sqrt_minus_one_crt,
    sqrt_minus_one_mod_prime,
)
from .counting import (
    AsymptoticReport,
    CountTable,
    Sums,
    asymptotic_report,
    checkpoint_sums,
    count_geodesics,
    main_term,
    odd_modulus_roots,
    roots_sum_in_bounds,
    sieve_tables,
    sojourn_threshold,
    sublinear_sums,
    sums_at,
    total_members,
    total_roots,
)
from .hyperbolic import (
    GeodesicTrace,
    ReducedPoint,
    ReductionError,
    hyperbolic_distance,
    in_fundamental_domain,
    mobius_apply,
    reduce_points,
    reduce_to_domain,
    trace_sojourn,
)
from .lfunction import (
    SeriesValue,
    dirichlet_beta,
    residue_at_one,
    riemann_zeta,
    series_by_euler_product,
    series_by_sum,
    series_by_zeta_identity,
)
from .scatterset import (
    ScatterSet,
    UnimodularMatrix,
    canonical_fraction,
    equivalence_witness,
    family_blocks,
    fraction_record,
    iter_fractions,
    pairing_census,
    partner,
    scatter_set,
    sojourn_time,
)

__version__ = "0.1.0"
