"""Verifier/constructor toolkit for semigroups of I-type.

Pipeline: a quadratic presentation (or a raw pair-map table) yields a
pair map r on X^2; the three axioms are checked exhaustively; the
I-structure table is built inductively and decides the word problem;
the permutation calculus (phi, kernel exponents, cosets) follows; and
the quotient group is realized as a free crystallographic action on the
integer lattice with the unit cube as fundamental domain.
"""

from .bieberbach import (
    AffineIso,
    act,
    affine_generators,
    check_action_consistency,
    classify_isometry_2d,
    compose,
    export_affine_group,
    fixed_points,
    freeness_check,
    fundamental_domain_check,
    invert,
)
from .core import (
    AxiomError,
    CheckResult,
    ConsistencyError,
    DegreeBoundError,
    InputError,
    Perm,
    abelianize,
    compose_perm,
    sort_word,
)
from .istructure import (
    ITable,
    build_itable,
    degree2_relations,
    dump_itable,
    expected_hilbert,
    hilbert_count,
    normalize_word,
    v_inverse,
    v_of,
    words_equal,
)
from .presentation import (
    Presentation,
    StarReport,
    check_cyclic,
    check_star1,
    check_star2,
    check_star3,
    format_presentation,
    parse_presentation,
    parse_word,
    star_report,
)
from .structuremaps import (
    KernelData,
    PhiMap,
    check_cocycle,
    cocycle_exhaustive,
    coset_decomposition,
    kernel_exponents,
    phi_of,
)
from .ybr import (
    PairMap,
    axiom_checks,
    build_r,
    canonical_form,
    check_axioms,
    check_involutive,
    check_nondegenerate,
    check_yb,
    classify_orbits3,
    derived_bijections,
    enumerate_solutions,
    format_rtable,
    parse_rtable,
)

__all__ = [name for name in dir() if not name.startswith("_")]
