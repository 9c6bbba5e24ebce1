"""Lorentzian lattice geometry of elliptic-fibered K3 ample cones.

Exact rational intersection forms, parabolic translations and involution
pullbacks, hyperbolic models with the Euclidean boundary at the cusp, wall
rendering, and height-pairing experiments (synthetic oracle and elliptic
curves over Q).
"""

from .curves import (CurveQ, Pencil, default_pencil, naive_height,
                     specialization_scan)
from .errors import (CuspError, DegenerateFormError, DomainError, FrameError,
                     InputError, K3ConeError, ResourceError,
                     SingularFiberError)
from .frame import Decomposition, FibrationFrame, f4_frame
from .heights import FiberPoint, SyntheticFibration, cauchy_schwarz_check
from .involutions import sigma0_pullback, sigma_i_pullback, tau_pushforward
from .lattice import (IntersectionForm, dual_basis, form_from_dict,
                      in_light_cone, signature)
from .models import (BallModel, BoundaryChart, UpperHalfSpacePoint,
                     boundary_distance, hyperbolic_distance, phi,
                     to_upper_half_space)
from .svg import RenderOptions, render_svg
from .translations import Isometry, compose, power, section_translate, translation
from .walls import WallCircle, orbit_walls, wall_circle_ball, wall_circle_uhs

__all__ = [
    "BallModel", "BoundaryChart", "CurveQ", "CuspError", "Decomposition",
    "DegenerateFormError", "DomainError", "FiberPoint",
    "FibrationFrame", "FrameError", "InputError", "IntersectionForm",
    "Isometry", "K3ConeError", "Pencil", "RenderOptions", "ResourceError",
    "SingularFiberError", "SyntheticFibration", "UpperHalfSpacePoint",
    "WallCircle", "boundary_distance", "cauchy_schwarz_check", "compose",
    "default_pencil", "dual_basis", "f4_frame", "form_from_dict",
    "hyperbolic_distance", "in_light_cone", "naive_height", "orbit_walls",
    "phi", "power", "render_svg", "section_translate", "sigma0_pullback",
    "sigma_i_pullback", "signature", "specialization_scan",
    "tau_pushforward", "to_upper_half_space", "translation",
    "wall_circle_ball", "wall_circle_uhs",
]

__version__ = "0.1.0"
