"""Numerical verification of linearized static vacuum extensions on
Schwarzschild exteriors: conformal background, global transverse gauge,
radial structure equations, and per-mode asymptotic classification."""

from .background import (
    BackgroundAt,
    RoundData,
    RoundDataMatch,
    SchwarzschildParams,
    background_at,
    match_round_data,
)
from .harmonics import (
    SphereGrid,
    make_grid,
)
from .modes import (
    AsymptoticClass,
    AsymptoticKind,
    ModeIVP,
    ModeSolution,
    classify,
    classify_modes,
    integrate_mode,
    integrate_modes,
    make_ivp,
)

__version__ = "0.1.0"

__all__ = [
    "BackgroundAt",
    "RoundData",
    "RoundDataMatch",
    "SchwarzschildParams",
    "background_at",
    "match_round_data",
    "SphereGrid",
    "make_grid",
    "AsymptoticClass",
    "AsymptoticKind",
    "ModeIVP",
    "ModeSolution",
    "classify",
    "classify_modes",
    "integrate_mode",
    "integrate_modes",
    "make_ivp",
    "__version__",
]
