"""Finite commutative rings, their ideal spectra, and ideal-space topologies.

Build rings from tables (cyclic, products, quotients, localizations),
enumerate their ideal lattices, classify ideals into fifteen spectrum kinds,
generate the closed-subbase topology on any spectrum, and run a registry of
named checks (T01..T24) that verify or falsify structural statements about
hull/kernel maps, separation axioms, sobriety, connectedness, and idempotent
extraction, reporting concrete witnesses.
"""

from .caps import Caps, DEFAULT_CAPS
from .errors import (
    CapExceeded,
    HypothesisViolated,
    IdealSpacesError,
    ImproperIdeal,
    InvalidArity,
    InvalidSize,
    MixedRings,
    NoPartitionFound,
    ParseError,
    RingAxiomError,
    ZeroInMultiplicativeSet,
)
from .exprs import parse_ring_expression
from .ideals import (
    ALL_KINDS,
    IdealLattice,
    SpectrumKind,
    classify,
    contraction,
    enumerate_ideals,
    generate_ideal,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    jacobson_radical,
    radical,
    witness_order,
)
from .reports import VerdictReport
from .rings import (
    FiniteRing,
    Ideal,
    MultiplicativeSet,
    RingHom,
    enumerate_homs,
    is_isomorphic,
    is_von_neumann_regular,
    localize,
    make_product,
    make_quotient,
    make_zmod,
    multiplicative_closure,
    product_encode,
    unit_ideal,
    zero_ideal,
)
from .spectra import (
    PointSet,
    Spectrum,
    check_contraction_property,
    check_mip,
    full_point_set,
    has_partition_of_unity,
    hull,
    image_of_kernel,
    kernel,
    kuratowski_union_axiom,
    make_spectrum,
    x_radical,
)
from .topology import (
    TopologySpace,
    closure_of,
    extract_idempotent,
    generate_topology,
    irreducible_closed_sets,
    is_connected,
    is_quasi_compact,
    is_sober,
    is_t0,
    is_t1,
    strongly_disconnects,
)
from .verify import (
    ALL_CHECK_IDS,
    DEFAULT_SUITE_EXPRS,
    REGISTRY,
    SuiteConfig,
    SuiteRecord,
    registry_markdown,
    run_check,
    run_suite,
    search_counterexamples,
    verify_homeomorphism,
)

__version__ = "0.1.0"
