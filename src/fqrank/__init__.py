"""Entry statistics of random fixed-rank matrices over finite fields.

Construct a field with :func:`make_field`, draw rank-r matrices with
:func:`uniform_rank_r`, and study how many entries land in a chosen subset:
exact counting formulas, an algebraic decomposition of the statistic into
character sums, exact laws by exhaustive enumeration, and Monte Carlo normality
reports all live here.  The `fqrank` command exposes the same machinery on
the command line.
"""

from .characters import (
    BadSubset,
    CharacterTable,
    FunctionTable,
    IndexSubset,
    MissingComponent,
    NotSupportedOnUnits,
    character_table,
    component_transform_from_embedded,
    fourier_coefficient,
    fourier_inverse,
    fourier_transform,
    jacobi_component_trivial,
    jacobi_embedded_trivial,
    mobius_component,
    mobius_fourier_reconstruct,
    mobius_reconstruct,
    orthogonality_residuals,
    restrict_embed,
    sum_indicator,
    verification_battery,
)
from .counting import (
    MomentParams,
    RankOutOfRange,
    asymptotic_ct_mean,
    asymptotic_ct_variance,
    entry_bias,
    full_rank_pair_prob,
    full_rank_pair_prob_exact,
    rank_count,
    subset_bias,
    tv_closed_form,
    tv_closed_form_exact,
    unconstrained_moments,
)
from .field import (
    CompositeCharacteristic,
    DivisionByZero,
    FieldCtx,
    FieldSpec,
    FieldTooLarge,
    FqrankError,
    field_from_order,
    make_field,
    parse_field_spec,
)
from .matrices import (
    DimensionMismatch,
    FieldMismatch,
    MatrixFq,
    SubsetA,
    ct,
    dump_matrix,
    identity_matrix,
    load_matrix,
    mat_add,
    mat_mul,
    matrix,
    rank,
    wt,
    zero_matrix,
)
from .sampling import (
    RejectionOverflow,
    RejectionTelemetry,
    SeedSpec,
    draw_factor_pair,
    expected_full_rank_rate,
    product_sampler,
    uniform_full_rank,
    uniform_matrix,
    uniform_rank_r,
)
from .stats import (
    CltReport,
    Decomposition,
    DegenerateSubset,
    ExactDistribution,
    TooLargeToEnumerate,
    col_char_sum,
    count_zero_cols,
    count_zero_rows,
    decompose_ct,
    exact_distribution,
    expected_char_sum,
    ks_distance,
    normal_cdf,
    normalized_ct,
    product_ct,
    row_char_sum,
    run_clt,
    subset_coefficients,
    zero_count_moments,
)

__version__ = "0.1.0"
