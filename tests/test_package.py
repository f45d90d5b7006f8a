"""The public names of the package, pinned against a dropped re-export."""

import importlib
import inspect

import fqrank

PUBLIC = [
    "BadSubset", "CharacterTable", "CltReport", "CompositeCharacteristic", "Decomposition",
    "DegenerateSubset", "DimensionMismatch", "DivisionByZero", "ExactDistribution", "FieldCtx",
    "FieldMismatch", "FieldSpec", "FieldTooLarge", "FqrankError", "FunctionTable", "IndexSubset",
    "MatrixFq", "MissingComponent", "MomentParams", "NotSupportedOnUnits", "RankOutOfRange",
    "RejectionOverflow", "RejectionTelemetry", "SeedSpec", "SubsetA", "TooLargeToEnumerate",
    "asymptotic_ct_mean", "asymptotic_ct_variance", "character_table", "col_char_sum",
    "component_transform_from_embedded", "count_zero_cols", "count_zero_rows", "ct",
    "decompose_ct", "draw_factor_pair", "dump_matrix", "entry_bias", "exact_distribution",
    "expected_char_sum", "expected_full_rank_rate", "field_from_order", "fourier_coefficient",
    "fourier_inverse", "fourier_transform", "full_rank_pair_prob", "full_rank_pair_prob_exact",
    "identity_matrix", "jacobi_component_trivial", "jacobi_embedded_trivial", "ks_distance",
    "load_matrix", "make_field", "mat_add", "mat_mul", "matrix", "mobius_component",
    "mobius_fourier_reconstruct", "mobius_reconstruct", "normal_cdf", "normalized_ct",
    "orthogonality_residuals", "parse_field_spec", "product_ct", "product_sampler", "rank",
    "rank_count", "restrict_embed", "row_char_sum", "run_clt", "subset_bias",
    "subset_coefficients", "sum_indicator", "tv_closed_form", "tv_closed_form_exact",
    "unconstrained_moments", "uniform_full_rank", "uniform_matrix", "uniform_rank_r",
    "verification_battery", "wt", "zero_count_moments", "zero_matrix",
]


def test_public_names_are_pinned():
    public = sorted(
        name for name in dir(fqrank)
        if not name.startswith("_") and not inspect.ismodule(getattr(fqrank, name))
    )
    assert public == PUBLIC
    for name in PUBLIC:
        value = getattr(fqrank, name)
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_stats_module_still_imports_and_keeps_no_moved_name():
    stats = importlib.import_module("fqrank.stats")
    assert stats.run_clt is fqrank.run_clt
    moved = [name for name in PUBLIC if getattr(fqrank, name).__module__ in ("fqrank.decomposition", "fqrank.exact")]
    assert moved and not [name for name in moved if hasattr(stats, name)]
