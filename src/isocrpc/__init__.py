"""Constant principal-curvature-ratio surfaces in isotropic geometry.

Library layout:

- geometry: jets, the Monge (height-field) conversion with its admissibility
  test, isotropic/Euclidean curvatures, characteristic directions
- families: the catalog of exact surface families
- curves: direction-field tracing, top-view angles, osculating circles,
  contact with parabolic spheres
- spheres: parabolic spheres, one-parameter families, envelope
  characteristics and channel-surface checks
- duality: the isotropic metric duality (polarity in the unit sphere)
- residuals: governing ODE / identity residuals used for verification
- meshing: masked grid sampling with per-vertex curvature channels
- quadpack: QUADPACK's QAGS in Python floats, for the Euclidean height
- errors: the exception types, all GeometryError subclasses
- cli: list / generate / verify / trace / dual subcommands
"""

from .families import FamilySpec, evaluate, family_ids, make_spec
from .geometry import (
    IsoCurvature,
    Jet2Height,
    ParamJet2,
    characteristic_directions,
    crpc_target,
    euclidean_curvatures,
    fd_jet,
    height_jet_from_param,
    isotropic_curvatures,
    monge_jet,
    normal_curvature,
)

__all__ = [
    "FamilySpec",
    "IsoCurvature",
    "Jet2Height",
    "ParamJet2",
    "characteristic_directions",
    "crpc_target",
    "euclidean_curvatures",
    "evaluate",
    "family_ids",
    "fd_jet",
    "height_jet_from_param",
    "isotropic_curvatures",
    "make_spec",
    "monge_jet",
    "normal_curvature",
]

__version__ = "0.1.0"
