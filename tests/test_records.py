"""The engine's plain records are NamedTuples that keep the frozen-dataclass contract.

Each record keeps its ``repr`` text (error messages embed a Point's), its hash
(the hash of the tuple of its fields, so set orders hold), its immutability and
its field order, which ``_asdict()`` and the CLI's report dicts follow.  A
``@dataclass`` costs about a millisecond to define at import, so only the
classes that need one keep it.
"""

import ast
import pathlib

import pytest

import equidist
from equidist.body import FocalConfig, Rect
from equidist.connectivity import PolytopeVerdict, RepGraph
from equidist.errors import InvalidConfig
from equidist.polygon import (BoundReport, FocalRef, HyperEdge, RegularityReport,
                              VertexClassification, VertexInfo, VoronoiReport, WeightBoundReport)
from equidist.primitives import Circle, Line, Point
from equidist.type32 import Certificate32, LabeledPentagon, LabeledQuad, OrderingReport

A, B, C, D, E = Point(0.0, 0.0), Point(4.0, 0.0), Point(3.0, 1.5), Point(4.0, 4.0), Point(-0.5, 2.0)
ABCD_REPR = ("Point(x=0.0, y=0.0), Point(x=4.0, y=0.0), Point(x=3.0, y=1.5), "
             "Point(x=4.0, y=4.0)")
INNER, OUTER = FocalRef("inner", 0), FocalRef("outer", 1)

# (record, its repr, its fields in order), as the frozen dataclasses wrote them
RECORDS = [
    (Point(1.0, 2.0), "Point(x=1.0, y=2.0)", "x y"),
    (Line(0.6, 0.8, -1.5), "Line(a=0.6, b=0.8, c=-1.5)", "a b c"),
    (Circle(Point(0.0, 0.5), 2.0), "Circle(center=Point(x=0.0, y=0.5), radius=2.0)",
     "center radius"),
    (Rect(-1.0, -2.0, 3.0, 4.0), "Rect(xmin=-1.0, ymin=-2.0, xmax=3.0, ymax=4.0)",
     "xmin ymin xmax ymax"),
    (RepGraph((A, B), ((0, 1, 2),)),
     "RepGraph(nodes=(Point(x=0.0, y=0.0), Point(x=4.0, y=0.0)), edges=((0, 1, 2),))",
     "nodes edges"),
    (PolytopeVerdict(False, ("unbounded",), 0),
     "PolytopeVerdict(is_polytope=False, reasons=('unbounded',), chain_count=0)",
     "is_polytope reasons chain_count"),
    (FocalRef("outer", 3), "FocalRef(kind='outer', index=3)", "kind index"),
    (RegularityReport(False, ((INNER, OUTER, FocalRef("outer", 2)),), ()),
     "RegularityReport(ok=False, collinear=((FocalRef(kind='inner', index=0), "
     "FocalRef(kind='outer', index=1), FocalRef(kind='outer', index=2)),), concircular=())",
     "ok collinear concircular"),
    (HyperEdge((INNER, OUTER, FocalRef("inner", 2)), "colored_xyx",
               Circle(Point(0.5, 0.5), 1.5), 0.25),
     "HyperEdge(refs=(FocalRef(kind='inner', index=0), FocalRef(kind='outer', index=1), "
     "FocalRef(kind='inner', index=2)), color='colored_xyx', "
     "circle=Circle(center=Point(x=0.5, y=0.5), radius=1.5), weight=0.25)",
     "refs color circle weight"),
    (VertexClassification(((Point(0.0, 1.0), "convex"),), (Point(0.5, 0.5),), ()),
     "VertexClassification(vertices=((Point(x=0.0, y=1.0), 'convex'),), "
     "interior_witnesses=(Point(x=0.5, y=0.5),), exterior_witnesses=())",
     "vertices interior_witnesses exterior_witnesses"),
    (VertexInfo("convex", "double", (0, 2), (5,)),
     "VertexInfo(angle_type='convex', change_type='double', inner_refs=(0, 2), "
     "outer_refs=(5,))",
     "angle_type change_type inner_refs outer_refs"),
    (BoundReport(False, 7, 6), "BoundReport(ok=False, count=7, limit=6)", "ok count limit"),
    (VoronoiReport(500, 1, 498, 1, 120, 0, 0),
     "VoronoiReport(samples=500, ties_skipped=1, agreements=498, disagreements=1, "
     "inside_count=120, cell_misses=0, overlap_violations=0)",
     "samples ties_skipped agreements disagreements inside_count cell_misses "
     "overlap_violations"),
    (WeightBoundReport(True, False, 0.5, 1.25),
     "WeightBoundReport(holds=True, attained=False, lhs=0.5, rhs=1.25)", "holds attained lhs rhs"),
    (LabeledPentagon(A, B, C, D, E),
     "LabeledPentagon(a=Point(x=0.0, y=0.0), b=Point(x=4.0, y=0.0), c=Point(x=3.0, y=1.5), "
     "d=Point(x=4.0, y=4.0), e=Point(x=-0.5, y=2.0))",
     "a b c d e"),
    (LabeledQuad(A, B, C, D),
     "LabeledQuad(a=Point(x=0.0, y=0.0), b=Point(x=4.0, y=0.0), c=Point(x=3.0, y=1.5), "
     "d=Point(x=4.0, y=4.0))",
     "a b c d"),
    (Certificate32(A, B, C, D, E, 1e-12, "quad", (A, B, C, D)),
     "Certificate32(x1=Point(x=0.0, y=0.0), x2=Point(x=4.0, y=0.0), y1=Point(x=3.0, y=1.5), "
     "y2=Point(x=4.0, y=4.0), y3=Point(x=-0.5, y=2.0), residual=1e-12, source_kind='quad', "
     f"source=({ABCD_REPR}))",
     "x1 x2 y1 y2 y3 residual source_kind source"),
    (OrderingReport("generic", ((0.1, 0.2, 0.3), (0.4, 0.5, 0.6)), (0.7, 0.8, 0.9), (0.0, -0.0),
                    ((0, 1), (2, 0, 1)), 2, True, ((0, 1),), (), ()),
     "OrderingReport(category='generic', omegas=((0.1, 0.2, 0.3), (0.4, 0.5, 0.6)), "
     "deltas=(0.7, 0.8, 0.9), closure_residuals=(0.0, -0.0), labeling=((0, 1), (2, 0, 1)), "
     "separated_outer=2, delta_ordered=True, equal_omega_pairs=((0, 1),), collinear=(), "
     "concircular=())",
     "category omegas deltas closure_residuals labeling separated_outer delta_ordered "
     "equal_omega_pairs collinear concircular"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(record, text, fields):
    assert repr(record) == str(record) == text


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_hash_and_equality_are_those_of_the_field_tuple(record, text, fields):
    assert hash(record) == hash(tuple(record))
    assert record == tuple(record)


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_set(record, text, fields):
    for name in fields.split() + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_asdict_keeps_the_field_order(record, text, fields):
    assert list(record._asdict()) == fields.split()


def test_duplicate_focal_point_message_embeds_the_point_repr():
    with pytest.raises(InvalidConfig,
                       match=r"^duplicate focal point Point\(x=1\.0, y=2\.0\) \(inner/outer\)$"):
        FocalConfig.of([(1, 2)], [(1, 2), (3, 4), (0, 5)])


# (module, class): each needs a dataclass feature, so a new record is a NamedTuple
DATACLASSES = {
    ("body", "FocalConfig"),  # __post_init__ validates the focal sets
    ("body", "ConvexComponent"),  # cached_property and a compare=False field
    ("body", "EquidistantBody"),  # cached_property
    ("polygon", "PolygonChain"),  # tests pass it to dataclasses.replace
    ("cli", "RunConfig"),  # mutable; tests read dataclasses.fields of it
    ("svg", "Scene"),  # off the import path: only render imports svg
}


def test_only_the_declared_classes_are_dataclasses():
    package = pathlib.Path(equidist.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.attr if isinstance(target, ast.Attribute) else target.id
                    if name == "dataclass":
                        found.add((path.stem, node.name))
    assert found == DATACLASSES
