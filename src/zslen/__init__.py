"""Factorization-length invariants of zero-sum monoids over finite abelian
groups, and of rank-one primary monoids: sets of lengths, distance sets,
elasticity, and the distances realizable inside length sets of maximal
elasticity."""

from .config import ResourceConfig, default_config
from .errors import (
    BudgetExceededError,
    EngineMismatchError,
    InputError,
    ZslenError,
)
from .groups import AbelianGroup, cyclic, make_group, parse_group
from .sequences import (
    AtomSet,
    GSequence,
    SupportSet,
    enumerate_atoms,
    full_support,
    is_atom,
    parse_sequence,
    parse_support,
)
from .lengths import (
    LengthSet,
    length_set,
    max_elasticity_witness,
    min_delta,
    min_delta_of_atoms,
    sumset,
)
from .delta_rho import (
    DeltaRhoResult,
    delta_rho,
    delta_rho_star,
    divisor_closure,
    gcd_closure,
    one_in_delta_rho,
    realize_delta_set,
)
from .cf import (
    CFExpansion,
    ScanReport,
    cf_odd_length,
    cf_regular,
    exceptional_witness,
    min_delta_pair,
    min_delta_sym_quad,
    scan_exceptional,
    sufficient_filters,
)
from .fp import (
    FPMonoid,
    LocalProfile,
    ObstructionReport,
    delta_rho_star_product,
    fp_atoms,
    fp_length_set,
    local_profile,
    transfer_obstruction,
)

__version__ = "0.1.0"
