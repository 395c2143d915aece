"""The engine's classes keep the contract their frozen dataclasses had, without dataclasses.

Each record keeps its ``repr`` text (error messages embed a Point's), its hash
(the hash of the tuple of its fields, so set orders hold), its immutability and
its field order, which ``_asdict()`` and the CLI's report dicts follow.  The
engine's other classes (``FocalConfig``, ``PolygonChain``, ``ConvexComponent``,
``EquidistantBody``, ``cli.RunConfig``) keep their repr, hash, equality,
immutability and validation messages.  ``import dataclasses``
also imports ``inspect``, which costs a CLI process several milliseconds, so no
class in the package is a dataclass.
"""

import ast
import math
import pathlib

import pytest

import equidist
from equidist.body import ConvexComponent, EquidistantBody, FocalConfig, Rect, build_body
from equidist.cli import RunConfig
from equidist.connectivity import PolytopeVerdict, RepGraph
from equidist.errors import InvalidConfig
from equidist.polygon import (BoundReport, FocalRef, HyperEdge, PolygonChain, RegularityReport,
                              VertexClassification, VertexInfo, VoronoiReport, WeightBoundReport,
                              extract_boundary)
from equidist.primitives import EPS_GEO, Circle, Line, Point
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
    (Certificate32(A, B, C, D, E, "quad", (A, B, C, D)),
     "Certificate32(x1=Point(x=0.0, y=0.0), x2=Point(x=4.0, y=0.0), y1=Point(x=3.0, y=1.5), "
     "y2=Point(x=4.0, y=4.0), y3=Point(x=-0.5, y=2.0), source_kind='quad', "
     f"source=({ABCD_REPR}))",
     "x1 x2 y1 y2 y3 source_kind source"),
    (OrderingReport("generic", ((0.1, 0.2, 0.3), (0.4, 0.5, 0.6)), (0.7, 0.8, 0.9),
                    ((0, 1), (2, 0, 1)), 2, ((0, 1),), (), ()),
     "OrderingReport(category='generic', omegas=((0.1, 0.2, 0.3), (0.4, 0.5, 0.6)), "
     "deltas=(0.7, 0.8, 0.9), labeling=((0, 1), (2, 0, 1)), separated_outer=2, "
     "equal_omega_pairs=((0, 1),), collinear=(), concircular=())",
     "category omegas deltas labeling separated_outer equal_omega_pairs collinear concircular"),
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


# (module, class): none, so importing the package leaves dataclasses and inspect unloaded
DATACLASSES = set()


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


CFG = FocalConfig.of([(0, 0)], [(2, 0), (0, 2), (-2, 0), (0, -2)])
BODY = build_body(CFG)
(COMP,) = BODY.components
(CHAIN,) = extract_boundary(CFG)
OUTER_REPR = ("(Point(x=2.0, y=0.0), Point(x=0.0, y=2.0), Point(x=-2.0, y=0.0), "
              "Point(x=0.0, y=-2.0))")
CFG_REPR = f"FocalConfig(inner=(Point(x=0.0, y=0.0),), outer={OUTER_REPR})"
CLIP_REPR = ("Rect(xmin=-2.82842712474619, ymin=-2.82842712474619, xmax=2.82842712474619, "
             "ymax=2.82842712474619)")
COMP_REPR = (f"ConvexComponent(site=Point(x=0.0, y=0.0), outer={OUTER_REPR}, clip={CLIP_REPR}, "
             "vertices=(Point(x=1.0, y=-1.0), Point(x=1.0, y=1.0), Point(x=-1.0, y=1.0), "
             "Point(x=-1.0, y=-1.0)), edge_tags=(0, 1, 2, 3), clipped=False)")
BODY_REPR = (f"EquidistantBody(config={CFG_REPR}, components=({COMP_REPR},), clip={CLIP_REPR}, "
             "radius=1.414213562373095)")
CHAIN_REPR = ("PolygonChain(vertices=(Point(x=-1.0, y=-1.0), Point(x=1.0, y=-1.0), "
              "Point(x=1.0, y=1.0), Point(x=-1.0, y=1.0)), vertex_info=("
              + ", ".join(f"VertexInfo(angle_type='convex', change_type='outer', "
                          f"inner_refs=(0,), outer_refs={refs})"
                          for refs in ("(2, 3)", "(0, 3)", "(0, 1)", "(1, 2)"))
              + "), edge_pairs=((0, 3), (0, 0), (0, 1), (0, 2)))")


def fields_of(obj, names):
    return tuple(getattr(obj, name) for name in names.split())


# (object, an equal one built apart, one that differs in a field, its repr, its fields in
# order); a component's equality and hash ignore its private _exact
ENGINE = [
    (CFG, FocalConfig.of([(0, 0)], [(2, 0), (0, 2), (-2, 0), (0, -2)]),
     FocalConfig(CFG.inner, CFG.outer[::-1]), CFG_REPR, "inner outer"),
    (COMP, ConvexComponent(*fields_of(COMP, "site outer clip vertices edge_tags clipped"),
                           _exact=None),
     ConvexComponent(*fields_of(COMP, "site outer clip vertices edge_tags"), True, COMP._exact),
     COMP_REPR, "site outer clip vertices edge_tags clipped"),
    (BODY, EquidistantBody(CFG, (COMP,), BODY.clip, BODY.radius),
     EquidistantBody(CFG, (COMP,), BODY.clip, 2 * BODY.radius),
     BODY_REPR, "config components clip radius"),
    (CHAIN, PolygonChain(*fields_of(CHAIN, "vertices vertex_info edge_pairs")),
     PolygonChain(CHAIN.vertices, CHAIN.vertex_info, ()),
     CHAIN_REPR, "vertices vertex_info edge_pairs"),
]
ENGINE_IDS = [type(obj).__name__ for obj, *_ in ENGINE]


@pytest.mark.parametrize("obj, twin, other, text, fields", ENGINE, ids=ENGINE_IDS)
def test_engine_repr_lists_the_public_fields(obj, twin, other, text, fields):
    assert repr(obj) == str(obj) == text


@pytest.mark.parametrize("obj, twin, other, text, fields", ENGINE, ids=ENGINE_IDS)
def test_engine_equality_and_hash_read_the_public_fields(obj, twin, other, text, fields):
    assert obj == twin and obj is not twin
    assert hash(obj) == hash(twin) == hash(fields_of(obj, fields))
    assert obj != other and not obj == other


@pytest.mark.parametrize("obj, twin, other, text, fields", ENGINE, ids=ENGINE_IDS)
def test_engine_fields_cannot_be_set(obj, twin, other, text, fields):
    for name in fields.split() + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    assert fields_of(obj, fields) == fields_of(twin, fields)


@pytest.mark.parametrize("inner, outer, message", [
    ([], [(1, 2)], "both focal sets must be non-empty"),
    ([(0, 0)], [], "both focal sets must be non-empty"),
    ([(math.inf, 0)], [(1, 1)], "non-finite focal point Point(x=inf, y=0.0)"),
    ([(0, 0)], [(0, math.nan)], "non-finite focal point Point(x=0.0, y=nan)"),
], ids=["no-inner", "no-outer", "inf", "nan"])
def test_focal_config_validation_messages(inner, outer, message):
    with pytest.raises(InvalidConfig) as exc:
        FocalConfig.of(inner, outer)
    assert str(exc.value) == message


RUN_REPR = ("RunConfig(command='boundary', input_path='in.json', output_path=None, eps=1e-09, "
            "samples=10000, seed=42, show_circles=False, show_voronoi=False, t=None)")


def test_run_config_repr_lists_every_field_in_order():
    assert repr(RunConfig("boundary", "in.json")) == RUN_REPR
    rc = RunConfig("render", "in.json", "out.svg", eps=1e-6, samples=5, seed=1,
                   show_circles=True, show_voronoi=True, t=0.25)
    assert repr(rc) == ("RunConfig(command='render', input_path='in.json', output_path='out.svg', "
                        "eps=1e-06, samples=5, seed=1, show_circles=True, show_voronoi=True, "
                        "t=0.25)")


def test_run_config_compares_field_by_field_and_is_unhashable():
    rc = RunConfig("boundary", "in.json")
    assert rc == RunConfig("boundary", "in.json", None, eps=EPS_GEO, samples=10000, seed=42)
    assert rc != RunConfig("boundary", "in.json", seed=43)
    assert rc != RunConfig("hypergraph", "in.json")
    assert rc != ("boundary", "in.json", None, EPS_GEO, 10000, 42, False, False, None)
    with pytest.raises(TypeError):
        hash(rc)


@pytest.mark.parametrize("options, message", [
    ({"eps": 0.0}, "--eps must be positive and finite, got 0.0"),
    ({"eps": -1e-9}, "--eps must be positive and finite, got -1e-09"),
    ({"eps": math.inf}, "--eps must be positive and finite, got inf"),
    ({"eps": math.nan}, "--eps must be positive and finite, got nan"),
    ({"samples": 0}, "samples must be positive"),
], ids=["zero", "negative", "inf", "nan", "samples"])
def test_run_config_validation_messages(options, message):
    with pytest.raises(InvalidConfig) as exc:
        RunConfig("boundary", "in.json", **options)
    assert str(exc.value) == message


def test_run_config_rejects_an_unknown_option():
    with pytest.raises(TypeError, match="unexpected keyword argument 'epss'"):
        RunConfig("boundary", "in.json", epss=1e-3)
