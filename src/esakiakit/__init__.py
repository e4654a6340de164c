"""Finite duality toolkit: posets, upset algebras, reductions, colorings,
the level-structured spaces, merge scheduling, and desk-scale probes."""

from .algebra import (UpsetAlgebra, generated_subalgebra, is_si,
                      min_generators, parse_equation, parse_term,
                      subalgebras, upset_algebra, validates)
from .coloring import (Coloring, color_bits, color_leq,
                       enumerate_weak_colorings, is_coloring,
                       is_n_colorable, is_weak_coloring,
                       monochrome_mergeable_pair, promote_subspace_coloring,
                       search_coloring)
from .errors import (BudgetExceeded, CycleDetected, EmbeddingMismatch,
                     EsakiaKitError, InvalidId, NotColoring, NotEPartition,
                     NotMergeable, NotPMorphism, NotSurjective, NotUpset,
                     NotWeakColoring, OutOfRange, Overflow, PropertyFalsified,
                     QuotientNotColorable, TooLarge, TooManyAssignments,
                     UnboundVariable)
from .lemma import (DeltaMap, LiftCertificate, Schedule, corollary_certificate,
                    corollary_check, delta_map, full_c_levels, full_levels,
                    lift_schedule, schedule_beta_reductions, verify_schedule)
from .poset import Poset, ids_of, mask_of
from .probes import (KcReport, QuotientCensus, enumerate_posets,
                     enumerate_rooted_posets, kc_probe, quotient_census,
                     size_bound, size_bound_by_levels)
from .randgen import random_poset, random_weak_coloring
from .reduction import (EPartition, ReductionStep, all_epartitions,
                        alpha_mergeable, beta_mergeable,
                        brute_coarsest_color_respecting,
                        coarsest_color_respecting,
                        color_respecting_reduction, compose_steps,
                        decompose_pmorphism, is_epartition, is_pmorphism,
                        kernel, quotient)
from .spaces import (SpaceLabel, TripleTable, abomination_id,
                     abomination_level_ids, abomination_truncation,
                     canonical_coloring, ladder_id, ladder_truncation,
                     level_members, level_size, triple_table,
                     verify_downset_claim, width_of)
from .suite import run_suite

__all__ = [
    "Poset", "ids_of", "mask_of",
    "UpsetAlgebra", "upset_algebra", "is_si", "parse_term", "parse_equation",
    "validates", "generated_subalgebra", "min_generators", "subalgebras",
    "EPartition", "ReductionStep", "is_epartition", "quotient",
    "is_pmorphism", "kernel", "alpha_mergeable", "beta_mergeable",
    "decompose_pmorphism", "compose_steps",
    "coarsest_color_respecting", "color_respecting_reduction",
    "brute_coarsest_color_respecting", "all_epartitions",
    "Coloring", "color_leq", "color_bits", "is_weak_coloring",
    "monochrome_mergeable_pair", "is_coloring", "search_coloring",
    "is_n_colorable", "enumerate_weak_colorings",
    "promote_subspace_coloring",
    "SpaceLabel", "TripleTable", "triple_table", "width_of", "level_size",
    "level_members", "abomination_id", "abomination_truncation",
    "abomination_level_ids", "ladder_id", "ladder_truncation",
    "canonical_coloring", "verify_downset_claim",
    "Schedule", "schedule_beta_reductions", "verify_schedule", "full_levels",
    "DeltaMap", "delta_map", "LiftCertificate", "lift_schedule",
    "corollary_certificate", "corollary_check", "full_c_levels",
    "QuotientCensus", "quotient_census", "size_bound", "size_bound_by_levels",
    "KcReport", "kc_probe",
    "enumerate_posets", "enumerate_rooted_posets",
    "random_poset", "random_weak_coloring", "run_suite",
    "BudgetExceeded", "CycleDetected", "EmbeddingMismatch", "EsakiaKitError",
    "InvalidId", "NotColoring", "NotEPartition", "NotMergeable",
    "NotPMorphism", "NotSurjective", "NotUpset", "NotWeakColoring",
    "OutOfRange", "Overflow", "PropertyFalsified", "QuotientNotColorable",
    "TooLarge", "TooManyAssignments", "UnboundVariable",
]
