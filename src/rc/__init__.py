"""Exact telescoping certificates and congruence verification for partial
sums of P-recursive sequences."""

from .exactmath import (
    DenominatorNotInvertible,
    Poly,
    PolyParseError,
    RatFunc,
    legendre,
    nullspace,
    parse_poly,
    poly_divmod,
    poly_gcd,
    rat_mod,
)
from .sequences import (
    DerivedSequence,
    Recurrence,
    SequenceDef,
    SumFormula,
    check_parity_odd,
    check_recurrence_consistency,
    eval_direct,
    get_sequence,
    register_sequence,
)
from .telescoper import (
    ShiftWindow,
    TelescoperCertificate,
    certify,
    discover_weights,
    find_telescoper,
    partial_sum,
    reduce_shift,
)
from .congruence import (
    CongruenceClaim,
    builtin_claims,
    check_claim_at,
    eval_expr,
    eval_sum,
    get_claim,
    primes_in,
    verify_claim_range,
)

__version__ = "0.1.0"
