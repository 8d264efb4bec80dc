"""tdyn: exact coincidence Reidemeister/Nielsen dynamics on nilpotent groups.

The package computes, in exact arithmetic, the iterated coincidence number
sequences of an endomorphism pair given by its induced matrices on the
abelian sections of the isolated lower central series, together with the
derived invariants: rational zeta functions, bouquet trace realizations,
Gauss/Euler/Dold congruences, closed-form growth rates (archimedean and
p-adic), dual-torus entropies and the limit-point trichotomy.
"""

from .asymptotics import (
    Classification,
    DominantSpectrum,
    DominantTerm,
    classify_limit_points,
    dominant_spectrum,
    limit_points_sample,
)
from .congruence import (
    CongruenceReport,
    dold_check_realization,
    euler_check,
    gauss_check,
    gauss_checks,
    mobius,
)
from .errors import (
    DoubleRangeError,
    HypothesisViolatedError,
    InfiniteValueError,
    InputError,
    NoRecurrenceError,
    NonIntegerResidueError,
    NotSquareFreeError,
    NotTameError,
    PrecisionError,
    RootOfUnityError,
    TdynError,
    UnsupportedPairingError,
)
from .exact_linalg import (
    BigIntMatrix,
    IntPolynomial,
    RatMatrix,
    char_poly,
    companion_matrix,
    det_exact,
    det_rat,
    mat_pow,
)
from .group_model import (
    AbelianSection,
    NilpotentSystem,
    TamenessVerdict,
    builtin_example,
    heisenberg,
    s_integer,
    section,
    system_from_json,
    system_to_json,
    tameness_check,
    torus_matrix,
    validate,
    z_pair,
    z_times_d,
)
from .growth import (
    AlgebraicLog,
    GrowthReport,
    PadicLog,
    RationalLog,
    entropy_dual_torus,
    growth_rate,
    verify_entropy_identity,
)
from .padic import (
    NewtonPolygon,
    PadicGrowthFactor,
    newton_polygon,
    ord_p,
    padic_growth_factor,
    root_valuations,
)
from .polyalg import SmithForm, smith_normal_form
from .reidemeister import (
    INFINITY,
    ReidemeisterSequence,
    coincidence_sequence,
    is_infinite,
    nielsen_sequence,
    section_coincidence_number,
    section_coincidence_number_snf,
)
from .zeta import (
    BouquetRealization,
    ExponentialSum,
    RationalFunction,
    berlekamp_massey,
    expand,
    exterior_zeta,
    minimal_recurrence,
    power_sums,
    realize_bouquet,
    residue_exponents,
    zeta_from_sequence,
)

__version__ = "0.1.0"
