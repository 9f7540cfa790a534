"""Exact computation and classification of parabolic prehomogeneous spaces.

The package builds graded Lie-algebra data from weighted Dynkin diagrams
(:mod:`~pvlab.rootsys`, :mod:`~pvlab.chevalley`, :mod:`~pvlab.diagram`,
:mod:`~pvlab.grading`), decides prehomogeneity/regularity/Q-irreducibility
by exact linear algebra on generic points (:mod:`~pvlab.pvcore`), carries a
catalog of matrix-space models with closed-form invariants
(:mod:`~pvlab.models`), and classifies circled diagrams against the known
families (:mod:`~pvlab.classify`).  The ``pvlab`` console script exposes all
of it (:mod:`~pvlab.cli`).
"""
from __future__ import annotations

from .chevalley import ChevalleyBasis, chevalley_basis
from .classify import (AdjacentSplit, ClassificationReport, FamilyMatch, MismatchError,
                       NoAdjacentCircles, adjacent_split, classify, enumerate_reports,
                       family_match)
from .diagram import (DiagramError, ParseError, WeightedDiagram, parse_diagram,
                      render_ascii, render_compact, subdiagram)
from .grading import Component, Grading, components, compute_grading, level_roots, rules_R
from .models import MODELS, ModelSpec, build_model, pfaffian, verify_model
from .pvcore import (GroupCheck, Invariant, PVError, PVInstance, RegularityReport,
                     SubsetLattice, build_parabolic_pv, completely_q_reducible,
                     count_fundamental_invariants, decompose_filtration, generic_point,
                     is_reductive, is_regular, isotropy_algebra, q_irreducible, restrict,
                     verify_invariant)
from .rootsys import RootSystem, SimpleType, build_root_system, cartan_matrix

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SimpleType", "RootSystem", "build_root_system", "cartan_matrix",
    "ChevalleyBasis", "chevalley_basis",
    "WeightedDiagram", "DiagramError", "ParseError", "parse_diagram",
    "render_ascii", "render_compact", "subdiagram",
    "Grading", "Component", "compute_grading", "components", "level_roots", "rules_R",
    "PVInstance", "PVError", "build_parabolic_pv", "generic_point", "isotropy_algebra",
    "is_reductive", "is_regular", "count_fundamental_invariants", "restrict",
    "SubsetLattice", "q_irreducible", "completely_q_reducible", "decompose_filtration",
    "Invariant", "GroupCheck", "RegularityReport", "verify_invariant",
    "ModelSpec", "MODELS", "build_model", "verify_model", "pfaffian",
    "FamilyMatch", "ClassificationReport", "AdjacentSplit", "MismatchError",
    "NoAdjacentCircles", "family_match", "adjacent_split", "classify", "enumerate_reports",
]
