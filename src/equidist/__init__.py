"""Equidistant bodies and polygons of finite focal sets."""

from .body import (
    EquidistantBody,
    FocalConfig,
    Rect,
    bounding_radius,
    build_body,
    convex_component,
    distance_to_set,
    is_bounded,
    membership,
    star_center,
)
from .connectivity import (
    RepGraph,
    build_graph,
    check_polytope,
    decompose,
    intersection_dim,
    is_connected,
    is_interior_connected,
)
from .polygon import (
    HyperEdge,
    PolygonChain,
    check_regularity,
    check_vertex_bound,
    classify_vertices,
    empty_circle_triples,
    extract_boundary,
    voronoi_check,
)
from .primitives import (
    Circle,
    Line,
    Point,
    circumcircle,
    compose_three_reflections,
    incircle,
    orient,
    reflect_point,
    viewing_angle,
    viewing_angle_ccw,
)
from .type32 import (
    Certificate32,
    LabeledPentagon,
    LabeledQuad,
    classify_generic_32,
    construct_quad_focals,
    feasible_param_range,
    label_pentagon,
    label_quad,
    recognize_pentagon,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
