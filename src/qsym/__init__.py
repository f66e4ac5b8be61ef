"""qsym: finite semimetric spaces and quasisymmetric maps.

Everything operates on explicit distance matrices: triangle-function
classification, empirical quasisymmetry envelopes, structure transfer,
diameter distortion bounds, metric betweenness, and weak-similarity
search.  All analyses return reports with concrete witnesses.

The public names below are loaded on first use (PEP 562), so a process
imports only the submodules it touches: ``from qsym import check_qs``
imports ``qsym.quasisymmetry`` and what it needs, nothing else.
"""

import importlib

#: the public names, by the submodule that defines them
_EXPORTS = {
    "errors": """
        NotInvertible ParseError PreconditionFailed QsymError TooLarge
        ValidationError""",
    "spaces": """
        DEFAULT_TOL PointMap SemimetricSpace SubsetRef build_map build_space
        diameter identity_map snowflake snowflake_map transform_distances
        transform_map""",
    "generators": """
        collinear_space euclidean_space generate pseudolinear_quadruple
        random_semimetric_space ultrametric_space wilson_space""",
    "triangle": """
        Additive CustomGauge MaxGauge PtolemyReport ScaledAdditive
        TriangleFunction TriangleReport check_triangle is_ptolemaic
        minimal_bmetric_K parse_triangle_function""",
    "moduli": """
        BiLipschitzModulus CallableModulus CompositeModulus EmpiricalModulus
        ExpRatioModulus LinearModulus Modulus PowerModulus inverse_modulus
        invert_modulus parse_modulus""",
    "quasisymmetry": """
        DiameterBoundsReport EmpiricalEnvelope PairBoundsReport QsReport
        RatioIdentityReport SnowflakeFit bounded_image_bounds check_qs
        empirical_modulus eta_ratio_report fit_snowflake image_subset
        minimal_bilipschitz_L tv_bounds""",
    "transfer": """
        EndToEndReport PtolemyTransferReport TransferReport
        check_transfer_condition minimal_transfer_K2 ptolemy_transfer_check
        verify_transfer_end_to_end""",
    "betweenness": """
        BetweennessTriple QuadrupleShape betweenness_triples
        check_l02_conditions detect_pseudolinear eta_from_generators line_embed
        power_generator preserves_betweenness""",
    "weak_similarity": """
        ScalingFunction WeakSimilarity brute_force_weak_similarity
        check_involution_identity check_monotone_implications
        find_weak_similarity forced_scaling qs_from_weaksim space_ranks
        verify_weak_similarity""",
    "fileio": """
        envelope_text load_envelope_points load_space save_envelope
        save_space""",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        mod = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
