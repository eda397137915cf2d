"""Exact-arithmetic toolkit for elliptic curve local data and descent bounds.

Built around six torsion-family parametrizations: local reduction data at
every prime, exact rational torsion, 2- and 3-isogeny quotients, descent
through a 2-isogeny with the Sha(E/K)[2] lower bound, the Selmer-ratio
bound for a 3-isogeny, table-verification sweeps, and an end-to-end
divisibility audit.
"""

from .arith import (
    OO,
    LocalSquareClassGroup,
    SquareClass,
    factorize,
    hilbert_symbol,
    kronecker_symbol,
    padic_valuation,
    square_class,
)
from .weierstrass import CoordinateChange, WeierstrassModel, change_variables, quadratic_twist
from .tate import GlobalData, KodairaType, LocalReduction, global_data, local_reduction, minimal_model
from .families import (
    FamilyPoint,
    TorsionGroup,
    build_curve,
    torsion_growth,
    torsion_subgroup,
    z2_point,
    z2z2_point,
    z2z4_point,
    z2z6_point,
    z3_point,
    z4_point,
)
from .isogeny import (
    IsogenyRecord,
    etale_side,
    hadano_quotient,
    pullback_scale,
    three_isogeny_chain,
    velu_2_isogeny,
    velu_3_isogeny,
)
from .descent2 import (
    DescentCertificate,
    SelmerGroup2,
    everywhere_local_norm_dim,
    heegner_field_scan,
    kramer_sha2_bound,
    local_image,
    local_norm_index,
    phi_selmer,
    selmer_kernel_class,
)
from .descent3 import CasselsLedger, cassels_ledger, sha3_criterion
from .audit import AuditCertificate, main_theorem_audit
from .verify import Report, verify_section
from .cremona import ingest_cremona

__version__ = "0.1.0"
