"""End-to-end CLI runs: reports, exit codes, determinism, SVG structure."""

import inspect
import json
import math
import pathlib
import random
import re

import pytest

from equidist import body as body_module
from equidist import cli
from equidist import polygon as polygon_module
from equidist import primitives as primitives_module
from equidist.body import FocalConfig
from equidist.cli import format_json, main
from equidist.errors import NumericalDegeneracy
from equidist.polygon import BoundReport, FocalRef, HyperEdge, VertexInfo, extract_boundary
from equidist.primitives import EPS_GEO, Circle, Point
from conftest import reference_format_json
from test_exact_graph import grid_config, ring_config

SQUARE = {"inner": [[0, 0]], "outer": [[2, 0], [-2, 0], [0, 2], [0, -2]]}
QUAD = {"polygon": [[0, 0], [6, 0], [2, 2], [0, 6]]}
CONVEX_PENT = {"polygon": [[3 * math.cos(2 * math.pi * k / 5),
                            3 * math.sin(2 * math.pi * k / 5)] for k in range(5)]}
GENERIC_32 = {"inner": [[0.3, 0.2], [-0.5, -0.1]],
              "outer": [[3, 0], [-2, 2.5], [-1.5, -2.7]]}
UNBOUNDED = {"inner": [[0, 3]], "outer": [[2, -1], [-2, -1], [0, 2]]}
# regular; one empty triple is collinear to within rounding, its centre ~1e24 out
FAR_CENTRE = {"inner": [[43046721.5, 57395628.25], [-57395627.5, 43046721.25], [0.5, 0.25]],
              "outer": [[71744535.5, 0.25], [57395628.49999999, -43046720.75]]}
# the only triple's circumcentre lies ~5e309 out, beyond the float range
CENTRE_OVERFLOW = {"inner": [[100000.0, 1e-300]], "outer": [[0.0, 0.0], [200000.0, 0.0]]}


def huge_square(s):
    """The unit-square example scaled so that its body is the square of side s."""
    return {"inner": [[0, 0]], "outer": [[s, 0], [-s, 0], [0, s], [0, -s]]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def flag(field):
    """The command-line flag of a RunConfig field."""
    return "--" + field.replace("_", "-")


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReports:
    def test_body_square(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, ["body", write(tmp_path, "sq.json", SQUARE)])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["command"] == "body"
        verts = report["result"]["chains"][0]["vertices"]
        assert sorted(map(tuple, verts)) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_graph(self, tmp_path, capsys):
        doc = {"inner": [[-1, 0], [1, 0]],
               "outer": [[10, 0], [-10, 0], [0, 10], [0, -10]]}
        code, out, _ = run_cli(capsys, ["graph", write(tmp_path, "g.json", doc)])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["edges"] == [[0, 1, 2]]
        assert result["connected"] and result["interior_connected"]

    def test_boundary_polytope_verdict(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["boundary", write(tmp_path, "sq.json", SQUARE)])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["chain_count"] == 1
        assert result["polytope"]["is_polytope"] is True
        assert result["vertex_bound"]["ok"] is True

    def test_hypergraph_regular_and_irregular(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["hypergraph", write(tmp_path, "g32.json", GENERIC_32)])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["regular"] is True
        assert len(result["vertices"]) == 5
        # the square configuration is concircular: reported, not an error
        code, out, _ = run_cli(capsys, ["hypergraph", write(tmp_path, "sq.json", SQUARE)])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["regular"] is False and result["concircular"]

    def test_hypergraph_irregular_lists_in_order(self, tmp_path, capsys):
        # integer grid points: five collinear triples and five concircular
        # quadruples, each list in combinations order of the labelled points
        # (inner points first)
        doc = {"inner": [[0, 0], [1, 1]],
               "outer": [[2, 0], [-2, 0], [0, 2], [0, -2], [2, 2], [-1, 1]]}
        code, out, _ = run_cli(capsys, ["hypergraph", write(tmp_path, "grid.json", doc)])
        assert code == 0
        result = json.loads(out)["result"]

        def refs(tuples):
            return [[(r["kind"][0], r["index"]) for r in t] for t in tuples]

        assert result["regular"] is False
        assert refs(result["collinear"]) == [
            [("i", 0), ("i", 1), ("o", 4)],
            [("i", 0), ("o", 0), ("o", 1)],
            [("i", 0), ("o", 2), ("o", 3)],
            [("i", 1), ("o", 0), ("o", 2)],
            [("o", 1), ("o", 2), ("o", 5)],
        ]
        assert refs(result["concircular"]) == [
            [("i", 0), ("i", 1), ("o", 2), ("o", 5)],
            [("i", 0), ("o", 0), ("o", 2), ("o", 4)],
            [("i", 1), ("o", 0), ("o", 1), ("o", 5)],
            [("o", 0), ("o", 1), ("o", 2), ("o", 3)],
            [("o", 2), ("o", 3), ("o", 4), ("o", 5)],
        ]

    def test_classify32(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["classify32", write(tmp_path, "g32.json", GENERIC_32)])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["category"] == "generic"
        assert result["labeling"] is not None

    def test_recognize_pentagon_negative(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["recognize-pentagon",
                                        write(tmp_path, "pent.json", CONVEX_PENT)])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["is_type_32"] is False
        assert result["verdict"] == "not (3,2)"

    def test_recognize_pentagon_pseudo_focal_outside(self, tmp_path, capsys):
        doc = {"polygon": [[-2, 2], [3, -5], [0, 0], [4, 5], [-6, 1]]}
        code, out, _ = run_cli(capsys, ["recognize-pentagon", write(tmp_path, "p.json", doc)])
        assert code == 0
        assert json.loads(out)["result"] == {"is_type_32": False, "verdict": "not (3,2)"}

    def test_recognize_pentagon_positive(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["boundary", write(tmp_path, "g32.json", GENERIC_32)])
        verts = json.loads(out)["result"]["chains"][0]["vertices"]
        code, out, _ = run_cli(capsys, ["recognize-pentagon",
                                        write(tmp_path, "p.json", {"polygon": verts})])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["is_type_32"] is True
        cert = result["certificate"]
        assert len(cert["inner"]) == 2 and len(cert["outer"]) == 3
        got = sorted(map(tuple, cert["inner"]))
        want = sorted(map(tuple, GENERIC_32["inner"]))
        for g, w in zip(got, want):
            assert math.hypot(g[0] - w[0], g[1] - w[1]) < 1e-8

    def test_construct_quad(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["construct-quad", write(tmp_path, "q.json", QUAD)])
        assert code == 0
        result = json.loads(out)["result"]
        cert = result["certificate"]
        assert len(cert["inner"]) == 2 and len(cert["outer"]) == 3
        assert sorted(cert) == ["inner", "outer", "source", "source_kind"]
        assert result["feasible_t"]

    def test_construct_quad_explicit_t(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["construct-quad",
                                        write(tmp_path, "q.json", QUAD), "--t", "0.5"])
        assert code == 0
        assert json.loads(out)["result"]["t"] == 0.5

    def test_voronoi_check(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["voronoi-check",
                                        write(tmp_path, "sq.json", SQUARE),
                                        "--samples", "2000"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["ok"] is True and result["samples"] == 2000

    def test_report_written_to_out(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, ["body", write(tmp_path, "sq.json", SQUARE),
                                        "--out", str(out_path)])
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["command"] == "body"


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["body", "/nonexistent/input.json"])
        assert code == 2
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["body", str(path)])
        assert code == 2

    def test_missing_keys(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["body", write(tmp_path, "x.json", {"points": []})])
        assert code == 2
        assert "inner" in json.loads(err)["error"]["message"]

    def test_validation_failure(self, tmp_path, capsys):
        doc = {"inner": [[0, 0], [0, 0]], "outer": [[1, 1], [2, 2], [1, 2]]}
        code, _, err = run_cli(capsys, ["body", write(tmp_path, "dup.json", doc)])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "InvalidConfig"

    def test_zero_samples_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "sq.json", SQUARE)
        code, out, err = run_cli(capsys, ["voronoi-check", path, "--samples", "0"])
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "InvalidConfig"

    def test_points_not_a_list_is_parse_failure(self, tmp_path, capsys):
        doc = {"inner": 5, "outer": SQUARE["outer"]}
        code, out, err = run_cli(capsys, ["body", write(tmp_path, "five.json", doc)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ParseFailure"

    @pytest.mark.parametrize("doc", [SQUARE, {"polygon": [[0, 0], [1, 0]]}])
    def test_no_polygon_of_three_vertices_is_parse_failure(self, tmp_path, capsys, doc):
        path = write(tmp_path, "shape.json", doc)
        code, out, err = run_cli(capsys, ["recognize-pentagon", path])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ParseFailure"

    @pytest.mark.parametrize("flag, value", [
        ("--eps", "nan"), ("--eps", "inf"), ("--eps", "0"),
    ])
    def test_bad_tolerance_flags_rejected(self, tmp_path, capsys, flag, value):
        path = write(tmp_path, "sq.json", SQUARE)
        code, out, err = run_cli(capsys, ["boundary", path, f"{flag}={value}"])
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidConfig"
        assert flag in error["message"]

    @pytest.mark.parametrize("command", ["body", "boundary", "graph", "voronoi-check"])
    def test_squared_distance_overflow_is_error_object(self, tmp_path, capsys, command):
        # the squared distances ~4e320 leave the float range
        code, out, err = run_cli(capsys, [command, write(tmp_path, "h.json", huge_square(2e160))])
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "NumericalDegeneracy"

    @pytest.mark.parametrize("command", ["body", "boundary"])
    def test_far_triangle_squared_distances_within_range(self, tmp_path, capsys, command):
        # 2e155 +- 1e150: the squared distances about the inner point are ~1e300, in range,
        # though the squared coordinate scale 4e310 is not
        doc = {"inner": [[2e155, 0]],
               "outer": [[2.00001e155, 0], [1.99999e155, 1e150], [1.99999e155, -1e150]]}
        code, out, err = run_cli(capsys, [command, write(tmp_path, "far.json", doc)])
        assert code == 0, err
        chains = json.loads(out)["result"]["chains"]
        assert len(chains) == 1 and len(chains[0]["vertices"]) == 3

    @pytest.mark.parametrize("y, message", [
        (1e-10, "the body radius 4.9999999999999995e+299 / 1e-10 leaves the float range"),
        (5e-9, "the clip box at 2.0 times the body radius 9.999999999999998e+307 "
               "leaves the float range"),
    ])
    @pytest.mark.parametrize("command", ["body", "boundary", "graph", "voronoi-check"])
    def test_body_radius_overflow_is_error_object(self, tmp_path, capsys, command, y, message):
        # c / r = 5e299 / y: at 1e-10 the radius leaves the float range, at 5e-9 twice it does
        doc = {"inner": [[0, y]], "outer": [[-1e150, 0], [1e150, 0], [0, 1e150]]}
        code, out, err = run_cli(capsys, [command, write(tmp_path, "r.json", doc)])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {"type": "NumericalDegeneracy", "message": message}

    @pytest.mark.parametrize("s", [1e-162, 1e-170, 1e-200, 2.0 ** -1070])
    @pytest.mark.parametrize("command", ["body", "boundary", "graph", "voronoi-check", "render"])
    def test_squared_distance_underflow_is_error_object(self, tmp_path, capsys, command, s):
        # the squared distances ~(2s)^2 underflow to 0 or below the least subnormal
        args = [command, write(tmp_path, "t.json", huge_square(2 * s)),
                "--out", str(tmp_path / "t.svg")]
        code, out, err = run_cli(capsys, args + (["--samples", "10"]
                                                 if command == "voronoi-check" else []))
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "NumericalDegeneracy"

    def test_tiny_square_above_the_underflow_keeps_its_chain(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["boundary", write(tmp_path, "t.json",
                                                          huge_square(2e-150))])
        assert code == 0
        chains = json.loads(out)["result"]["chains"]
        assert len(chains) == 1 and len(chains[0]["vertices"]) == 4

    @pytest.mark.parametrize("command", ["body", "boundary"])
    def test_area_beyond_float_shoelace_sum(self, tmp_path, capsys, command):
        # the float shoelace sum 2e308 overflows, the true area s * s = 1e308 does not
        s = 1e154
        code, out, _ = run_cli(capsys, [command, write(tmp_path, "h.json", huge_square(s))])
        assert code == 0
        assert [ch["area"] for ch in json.loads(out)["result"]["chains"]] == [s * s]

    def test_non_finite_report_value_is_error_object(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli.COMMANDS, "body", (lambda rc, data: {"area": math.inf}, ()))
        code, out, err = run_cli(capsys, ["body", write(tmp_path, "sq.json", SQUARE)])
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "NumericalDegeneracy"

    @pytest.mark.parametrize("command, doc", [
        ("recognize-pentagon", {"polygon": [[0, 0], [math.inf, 0], [2, 2], [0, 6], [-1, 3]]}),
        ("construct-quad", {"polygon": [[0, 0], [math.nan, 0], [2, 2], [0, 6]]}),
        ("render", {"polygon": [[0, 0], [math.nan, 0], [2, 2], [0, 6]]}),
    ])
    def test_non_finite_polygon_is_parse_failure(self, tmp_path, capsys, command, doc):
        # json writes and reads the Infinity and NaN literals
        svg_path = tmp_path / "p.svg"
        code, out, err = run_cli(capsys, [command, write(tmp_path, "p.json", doc),
                                          "--out", str(svg_path)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ParseFailure"
        assert not svg_path.exists()

    @pytest.mark.parametrize("doc", [
        {"inner": [[0, 0]], "outer": [[math.inf, 0], [-2, 0], [0, 2], [0, -2]]},
        {"inner": [[0, math.nan]], "outer": [[2, 0], [-2, 0], [0, 2], [0, -2]]},
    ], ids=["Infinity", "NaN"])
    @pytest.mark.parametrize("command", ["body", "boundary", "graph", "hypergraph", "render"])
    def test_non_finite_config_is_parse_failure(self, tmp_path, capsys, command, doc):
        # the same rule as for a polygon: a parse error, before any FocalConfig is built
        svg_path = tmp_path / "c.svg"
        code, out, err = run_cli(capsys, [command, write(tmp_path, "c.json", doc),
                                          "--out", str(svg_path)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ParseFailure"
        assert not svg_path.exists()

    @pytest.mark.parametrize("command, doc", [
        *((command, huge_square(10 ** 400)) for command in ("body", "boundary", "graph", "hypergraph")),
        ("recognize-pentagon", {"polygon": [[0, 0], [10 ** 400, 0], [2, 2], [0, 6], [-1, 3]]}),
    ])
    def test_integer_beyond_float_range_is_parse_failure(self, tmp_path, capsys, command, doc):
        code, out, err = run_cli(capsys, [command, write(tmp_path, "h.json", doc)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ParseFailure"

    @pytest.mark.parametrize("command, doc", [
        *((command, {"inner": [[0, 0]], "outer": [[2, 0], [-2, 0], [0, True], [0, -2]]})
          for command in ("body", "boundary", "graph", "hypergraph")),
        ("hypergraph", {"inner": [[False, 0]], "outer": [[2, 0], [-2, 0], [0, 2]]}),
        ("recognize-pentagon", {"polygon": [[0, 0], [3, 0], [True, 2], [0, 6], [-1, 3]]}),
    ])
    def test_boolean_coordinate_is_parse_failure(self, tmp_path, capsys, command, doc):
        # JSON true and false load as Python bools, which are ints
        code, out, err = run_cli(capsys, [command, write(tmp_path, "b.json", doc)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ParseFailure"

    def test_integer_beyond_digit_limit_is_error_object(self, tmp_path, capsys):
        # json.load refuses integers of more than sys.get_int_max_str_digits() digits
        path = tmp_path / "h.json"
        path.write_text('{"inner": [[0, 0]], "outer": [[2%s, 0], [-2, 0], [0, 2], [0, -2]]}'
                        % ("0" * 5000))
        code, out, err = run_cli(capsys, ["body", str(path)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_unwritable_svg_path_is_error_object(self, tmp_path, capsys):
        # render writes its SVG inside the command, before the report exists
        svg_path = tmp_path / "missing" / "x.svg"
        code, out, err = run_cli(capsys, ["render", write(tmp_path, "sq.json", SQUARE),
                                          "--out", str(svg_path)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"

    def test_deeply_nested_input_is_error_object(self, tmp_path, capsys):
        # json.load recurses once per level and gives up with RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, out, err = run_cli(capsys, ["body", str(path)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "RecursionError"

    def test_unbounded_is_validation_failure(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["body", write(tmp_path, "u.json", UNBOUNDED)])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "Unbounded"


class TestOuterHullBuilds:
    """Each command builds the outer hull once; hypergraph and the (3,2) round trips, which
    check their focal points exactly, build no body."""

    @pytest.mark.parametrize("command, doc, builds", [
        ("body", GENERIC_32, 1),
        ("graph", GENERIC_32, 1),
        ("boundary", GENERIC_32, 1),
        ("hypergraph", GENERIC_32, 0),
        ("classify32", GENERIC_32, 1),
        ("voronoi-check", GENERIC_32, 1),
        ("render", GENERIC_32, 1),
        ("render", UNBOUNDED, 1),
        ("recognize-pentagon", None, 0),
        ("construct-quad", QUAD, 0),
    ], ids=["body", "graph", "boundary", "hypergraph", "classify32", "voronoi-check", "render",
            "render-unbounded", "recognize-pentagon", "construct-quad"])
    def test_convex_hull_builds(self, tmp_path, capsys, monkeypatch, command, doc, builds):
        if doc is None:  # the pentagon that GENERIC_32 bounds
            cfg = FocalConfig.of(GENERIC_32["inner"], GENERIC_32["outer"])
            doc = {"polygon": [list(v) for v in extract_boundary(cfg)[0].vertices]}
        args = [command, write(tmp_path, "in.json", doc)]
        if command == "voronoi-check":
            args += ["--samples", "50"]
        if command == "render":
            args += ["--out", str(tmp_path / "out.svg"), "--show-circles", "--show-voronoi"]
        calls = []
        hull = body_module.convex_hull
        monkeypatch.setattr(body_module, "convex_hull", lambda pts: calls.append(1) or hull(pts))
        code, out, _ = run_cli(capsys, args)
        assert code == 0 and '"error"' not in out
        assert len(calls) == builds


class TestStagesRunOncePerInput:
    """The engine's memo runs each undecorated stage once per op, though two call sites ask.

    Each case counts a callee that only the undecorated stage reaches: ``build_body`` calls
    ``bounding_radius`` and ``check_regularity`` builds one ``RegularityReport``.
    """

    @pytest.mark.parametrize("command, module, callee", [
        ("boundary", body_module, "bounding_radius"),
        ("hypergraph", polygon_module, "RegularityReport"),
    ], ids=["boundary", "hypergraph"])
    def test_undecorated_stage_runs_once(self, tmp_path, capsys, monkeypatch, command, module,
                                         callee):
        original = getattr(module, callee)
        runs = []
        monkeypatch.setattr(module, callee,
                            lambda *args, **kwargs: runs.append(args) or original(*args, **kwargs))
        code, out, _ = run_cli(capsys, [command, write(tmp_path, "in.json", GENERIC_32)])
        assert code == 0 and '"error"' not in out
        assert len(runs) == 1

    def test_hypergraph_scales_its_focal_points_once(self, tmp_path, capsys, monkeypatch):
        # the regularity scan, the gift-wrap and every hyperedge circle read one integer frame
        scaled = []
        for module in (body_module, primitives_module):
            monkeypatch.setattr(module, "dyadic_ints", lambda values, scale=module.dyadic_ints:
                                scaled.append(len(values)) or scale(values))
        cfg = ring_config(random.Random(5), 8, 12)
        doc = {"inner": [list(p) for p in cfg.inner], "outer": [list(p) for p in cfg.outer]}
        code, out, _ = run_cli(capsys, ["hypergraph", write(tmp_path, "in.json", doc)])
        result = json.loads(out)["result"]
        assert code == 0 and result["regular"] and len(result["edges"]) > 1
        assert scaled == [2 * (cfg.p + cfg.q)]

    @pytest.mark.parametrize("seed, scalings", [(8, 1), (5, 2)], ids=["disc", "rows"])
    def test_boundary_scales_its_focal_points_once(self, tmp_path, capsys, monkeypatch, seed,
                                                    scalings):
        # the hull clearance, the disc certificate, the graph's empty-disc test and the walk
        # read the integers of _tables (the disc certificate scales only its centre and box);
        # seed 5 has a pair that the empty-disc test leaves open, so its body's rows are
        # scaled too, once
        cfg = ring_config(random.Random(seed), 8, 12)
        focal = set(cfg.points)
        scaled = []

        def counted(values, scale):
            values = list(values)
            if any(Point(x, y) in focal for x, y in zip(values[::2], values[1::2])):
                scaled.append(len(values))
            return scale(values)

        for module in (body_module, primitives_module):
            monkeypatch.setattr(module, "dyadic_ints",
                                lambda values, scale=module.dyadic_ints: counted(values, scale))
        doc = {"inner": [list(p) for p in cfg.inner], "outer": [list(p) for p in cfg.outer]}
        code, out, _ = run_cli(capsys, ["boundary", write(tmp_path, "in.json", doc)])
        assert code == 0 and json.loads(out)["result"]["chain_count"] == 1
        assert scaled[0] == 2 * (cfg.p + cfg.q) and len(scaled) == scalings

    @pytest.mark.parametrize("seed, calls", [(8, 0), (5, 1)], ids=["disc", "rows"])
    def test_boundary_builds_component_rows_only_when_read(self, tmp_path, capsys, monkeypatch,
                                                           seed, calls):
        # every pair of seed 8 passes the empty-disc test, so no component reads its rows;
        # seed 5's open pair reads them, and one shared call scales every component's
        rows, bodies = [], []
        integer_rows, chains = body_module._integer_rows, polygon_module._chains
        monkeypatch.setattr(body_module, "_integer_rows",
                            lambda *args: rows.append(args) or integer_rows(*args))
        monkeypatch.setattr(polygon_module, "_chains",
                            lambda body, eps, cycles: bodies.append(body) or chains(body, eps, cycles))
        cfg = ring_config(random.Random(seed), 8, 12)
        doc = {"inner": [list(p) for p in cfg.inner], "outer": [list(p) for p in cfg.outer]}
        code, out, _ = run_cli(capsys, ["boundary", write(tmp_path, "in.json", doc)])
        assert code == 0 and json.loads(out)["result"]["polytope"]["is_polytope"]
        assert len(rows) == calls and len(bodies) == 1
        assert sum("_frame" in vars(c) for c in bodies[0].components) == 2 * calls
        first, last = bodies[0].components[0], bodies[0].components[-1]
        assert first.vertices and last.contains(last.site) and len(rows) == 1


class TestBoundaryWalkedOncePerBodyAndEps:
    """The chains are kept per config object and eps: a second walk at the same eps is free."""

    @staticmethod
    def walks(tmp_path, capsys, monkeypatch, args, keep=True):
        """The report of args and the (body, eps) of each walk, which ends in one ``_chains``."""
        chains = polygon_module._chains
        runs = []

        def counted(body, eps, cycles):
            runs.append((body, eps))
            return chains(body, eps, cycles)

        monkeypatch.setattr(polygon_module, "_chains", counted)
        if not keep:
            monkeypatch.setattr(polygon_module, "_boundary", polygon_module._boundary.__wrapped__)
        code, out, err = run_cli(capsys, args)
        monkeypatch.undo()
        assert code == 0 and err == ""
        svg = tmp_path / "out.svg"
        return out + (svg.read_text() if svg.exists() else ""), runs

    @pytest.mark.parametrize("command, extra, count", [
        ("boundary", [], 1),
        ("boundary", ["--eps", "2e-9"], 2),
        ("body", [], 1),
        ("render", ["--out", "OUT"], 1),
    ], ids=["boundary", "boundary-eps", "body", "render"])
    def test_walk_runs_once_per_eps(self, tmp_path, capsys, monkeypatch, command, extra, count):
        cfg = ring_config(random.Random(5), 8, 12)
        doc = {"inner": [list(p) for p in cfg.inner], "outer": [list(p) for p in cfg.outer]}
        args = [command, write(tmp_path, "in.json", doc)]
        args += [str(tmp_path / "out.svg") if a == "OUT" else a for a in extra]
        report, runs = self.walks(tmp_path, capsys, monkeypatch, args)
        assert len(runs) == count and len({id(body) for body, _ in runs}) == 1
        # the same report as an engine that walks on every call
        unkept, every = self.walks(tmp_path, capsys, monkeypatch, args, keep=False)
        assert report == unkept and len(every) == 1 + (command == "boundary")


class TestExactConstructions:
    def test_hypergraph_far_circumcentre(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["hypergraph", write(tmp_path, "far.json", FAR_CENTRE)])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["regular"] is True and result["edges"]

    def test_hypergraph_centre_beyond_float_range(self, tmp_path, capsys):
        path = write(tmp_path, "over.json", CENTRE_OVERFLOW)
        code, out, err = run_cli(capsys, ["hypergraph", path])
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "NumericalDegeneracy"


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, "g32.json", GENERIC_32)
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, ["voronoi-check", path,
                                            "--samples", "500", "--seed", "7"])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_svg_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, "g32.json", GENERIC_32)
        docs = []
        for name in ("a.svg", "b.svg"):
            svg_path = tmp_path / name
            code, _, _ = run_cli(capsys, ["render", path, "--out", str(svg_path),
                                          "--show-circles", "--show-voronoi"])
            assert code == 0
            docs.append(svg_path.read_bytes())
        assert docs[0] == docs[1]

    def test_float_format_round_trips(self):
        values = [1.0, -0.0, math.pi, 1e-300, 123456.789e11, 1.4142135623730951]
        text = format_json(values)
        back = json.loads(text)
        assert back == values


class TestFormatJson:
    """The writer takes the engine's values as they are: Points, focal refs and records."""

    def test_point_is_an_inline_pair(self):
        assert format_json(Point(-0.0, math.pi)) == "[-0, 3.1415926535897931]"

    def test_points_are_one_per_line(self):
        points = (Point(1.0, -2.5), Point(0.1, 3.0))
        assert format_json(points) == "[\n  [1, -2.5],\n  [0.10000000000000001, 3]\n]"
        assert format_json({"vertices": list(points)}, 1) == (
            '{\n    "vertices": [\n      [1, -2.5],\n      [0.10000000000000001, 3]\n    ]\n  }')

    @pytest.mark.parametrize("record, written", [
        (FocalRef("outer", 3), {"kind": "outer", "index": 3}),
        (VertexInfo("convex", "double", (0, 2), (5,)),
         {"angle_type": "convex", "change_type": "double", "inner_refs": [0, 2],
          "outer_refs": [5]}),
        (BoundReport(False, 7, 6), {"ok": False, "count": 7, "limit": 6}),
    ], ids=["FocalRef", "VertexInfo", "BoundReport"])
    def test_record_is_the_dict_of_its_fields(self, record, written):
        assert format_json(record) == format_json(written)
        assert format_json([record], 2) == format_json([written], 2)

    @pytest.mark.parametrize("value", [
        type("Sub", (dict,), {})(a=1), Circle(Point(0.0, 0.0), 1.0),
    ], ids=["dict-subclass", "Circle"])
    def test_any_other_type_is_a_type_error(self, value):
        with pytest.raises(TypeError, match="unsupported report value"):
            format_json(value)


def outcome(fmt, obj, indent=0):
    """fmt(obj, indent), or the type and message of what it raised."""
    try:
        return fmt(obj, indent)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


def nested(depth):
    """A value nested depth levels deep, lists, tuples and dicts in turn."""
    value = Point(0.5, -1.0)
    for level in range(depth):
        value = ([value, level], (value,), {"level": level, "inner": value})[level % 3]
    return value


class TestWriterAgainstReference:
    """The one-buffer writer against the string-returning recursion it replaced, byte for byte."""

    REF = FocalRef("outer", 4)
    INFO = VertexInfo("convex", "double", (0, 2), (5,))

    def test_every_report_of_the_compare_reports_matrix(self, tmp_path, monkeypatch, capsys):
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
        import compare_reports

        inputs, jobs = compare_reports.matrix()
        for name, doc in inputs.items():
            (tmp_path / name).write_text(compare_reports.corpus.dumps(doc), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        written, real = [], cli.format_json

        def both(obj, indent=0):
            written.append((outcome(real, obj, indent), outcome(reference_format_json, obj, indent)))
            return real(obj, indent)

        monkeypatch.setattr(cli, "format_json", both)
        rejected = 0
        for argv in jobs:
            try:
                main(argv)
            except SystemExit:  # argparse rejects an option the command does not read
                rejected += 1
        capsys.readouterr()
        assert len(written) == len(jobs) - rejected > 130
        assert all(got == want for got, want in written)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[], (), {}],
        ['quote " backslash \\ newline \n tab \t', "ünïcode ✓", "\x00\x1f\x7f", "\ud800"],
        {"escaped": "a\"b\\c\u2028", "items": ("\n", "\u00e9")},
        FocalRef("outer", 3), VertexInfo("convex", "double", (0, 2), (5,)),
        BoundReport(False, 7, 6), [FocalRef("inner", 0), BoundReport(True, 3, 4)],
        {"refs": (FocalRef("inner", 1), FocalRef("outer", 2)),
         "info": [VertexInfo("concave", "single", (1,), (0, 4))]},
        [True, False, None, 0, -7, 2.5, -0.0, 1e-300, 1e300, Point(1.0, -2.0)],
        nested(150),
        [REF, REF], (INFO, BoundReport(True, 3, 4), INFO),
        {"refs": (REF, REF), "again": [REF]},
        {"first": REF, "deeper": [REF, {"deepest": REF}], "last": REF},
        [FocalRef("inner", 1), FocalRef("inner", True), FocalRef("inner", 1.0),
         FocalRef("inner", 1)],
    ], ids=["dict", "list", "tuple", "empty-members", "empty-items", "escapes",
            "escaped-members", "FocalRef", "VertexInfo", "BoundReport", "records-in-a-list",
            "records-in-a-dict", "scalars-and-a-point", "nested-150", "a-record-twice",
            "a-record-twice-beside-another", "a-record-at-two-levels",
            "a-record-at-three-levels", "equal-records-printed-differently"])
    @pytest.mark.parametrize("indent", [0, 3, 200])
    def test_values(self, value, indent):
        assert format_json(value, indent) == reference_format_json(value, indent)

    @pytest.mark.parametrize("width", [71, 72, 73])
    def test_scalar_lists_about_the_inline_width(self, width):
        items = [12345, 1.5, None, True, "y" * (width - 18)]
        assert sum(len(reference_format_json(v)) for v in items) == width
        for value in (items, tuple(items), {"items": items}, [items]):
            text = format_json(value)
            assert text == reference_format_json(value)
            assert ("[12345, 1.5, null, true, " in text) == (width < 72)

    @pytest.mark.parametrize("value", [
        Point(math.nan, 1.0), Point(1.0, math.inf), Point(math.inf, math.nan),
        [1.0, math.nan], {"a": [1.0, (2.0, -math.inf)]},
        {1}, type("Text", (str,), {})("a"), [1, type("Text", (str,), {})("a")],
        [type("Items", (list,), {})([1])],
        HyperEdge((FocalRef("inner", 0),) * 3, "mono_inner", Circle(Point(0.0, 0.0), 1.0), None),
        [FocalRef("inner", math.inf)] * 2,
        [FocalRef("inner", math.inf), math.nan, FocalRef("inner", math.inf)],
        {"a": BoundReport(True, 3, math.nan), "b": [BoundReport(True, 3, math.nan)] * 2},
        [VertexInfo("convex", "double", (0, -math.inf), (5,))] * 3,
        (Point(1.0, 2.0), Point(3.0, math.nan)),
        (Point(1.0, 2.0), Point(-math.inf, math.nan), Point(math.nan, 0.0)),
        [Point(1.0, 2.0), 7, Point(math.inf, 1.0)],
    ], ids=["nan-x", "inf-y", "x-before-y", "nan-in-a-list", "nested-inf", "set",
            "str-subclass", "str-subclass-in-a-list", "list-subclass", "HyperEdge",
            "repeated-record", "repeated-record-around-nan", "repeated-at-two-levels",
            "repeated-record-with-a-tuple", "second-point", "second-of-three-points",
            "points-and-an-int"])
    def test_same_exception(self, value):
        got = outcome(format_json, value)
        assert isinstance(got, tuple)
        assert got == outcome(reference_format_json, value)
        assert got[0] is (NumericalDegeneracy if "value in report" in got[1] else TypeError)

    def test_a_record_met_again_is_written_once(self, monkeypatch):
        written = []
        real = cli._write_members

        def counted(items, level, out, memo):
            written.append(level)
            real(items, level, out, memo)

        monkeypatch.setattr(cli, "_write_members", counted)
        text = format_json([self.REF, self.REF, [self.REF]])
        assert text == reference_format_json([self.REF, self.REF, [self.REF]])
        assert written == [1, 2]  # once at each level it is met on


class TestOptionDefaults:
    """Every option default lives in RunConfig; the parser only reads what is given."""

    def test_eps_default_is_the_walks_default(self):
        # check_polytope's walk hits the one the command ran only at the same eps
        default = inspect.signature(extract_boundary).parameters["eps"].default
        assert cli.RunConfig.eps == default == EPS_GEO

    def test_readme_options_table_lists_each_commands_options(self):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        header = "| command | options besides `input` and `--out` |\n| --- | --- |\n"
        assert readme.count(header) == 1
        rows = readme.split(header)[1].split("\n\n")[0].splitlines()
        listed = []
        for row in rows:
            commands, options = row.strip("|").split("|")
            flags = set(re.findall(r"`(--[a-z-]+)`", options))
            assert flags or options.strip() == "none", row
            listed += [(command, flags) for command in re.findall(r"`([a-z0-9-]+)`", commands)]
        assert sorted(command for command, _ in listed) == sorted(cli.COMMANDS)
        assert dict(listed) == {command: {flag(field) for field in fields}
                                for command, (_, fields) in cli.COMMANDS.items()}

    INPUTS = {"classify32": GENERIC_32, "recognize-pentagon": CONVEX_PENT,
              "construct-quad": QUAD}

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_unset_options_take_the_runconfig_defaults(self, tmp_path, capsys, monkeypatch,
                                                       command):
        path = write(tmp_path, "in.json", self.INPUTS.get(command, SQUARE))
        extra = {"output_path": str(tmp_path / "out.svg")} if command == "render" else {}
        args = [command, path] + (["--out", extra["output_path"]] if extra else [])
        want = cli.RunConfig(command, path, **extra)
        code, out, err = run_cli(capsys, args)
        assert code == 0, err
        defaults = {name: getattr(cli.RunConfig, name, None) for name in cli.RunConfig._fields}
        assert json.loads(out)["diagnostics"] == {
            "eps": defaults["eps"], "clip_scale": body_module.CLIP_SCALE,
            "samples": defaults["samples"], "seed": defaults["seed"]}
        parsed = []
        monkeypatch.setattr(cli, "run", parsed.append)
        main(args)
        assert parsed == [want]

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {"--help", "--out"} | {flag(field) for field in cli.COMMANDS[command][1]}

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_each_command_reads_the_options_it_lists(self, tmp_path, command):
        read = set()

        class Recording(cli.RunConfig):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        rc = Recording(command, "in.json", str(tmp_path / "out.svg"), samples=50)
        read.clear()
        cli.COMMANDS[command][0](rc, self.INPUTS.get(command, SQUARE))
        options = set(cli.RunConfig._fields) - {
            "command", "input_path", "output_path"}
        assert read & options == set(cli.COMMANDS[command][1])

    @pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "construct-quad"])
    def test_t_is_rejected_outside_construct_quad(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, write(tmp_path, "in.json", SQUARE), "--t", "0.3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --t 0.3" in capsys.readouterr().err

    @pytest.mark.parametrize("command, field", [  # --t: the test above
        (command, field) for command, (_, fields) in cli.COMMANDS.items()
        for field in cli._OPTIONS if field not in fields and field != "t"])
    def test_unread_option_is_rejected(self, tmp_path, capsys, command, field):
        option = [flag(field)]
        if cli._OPTIONS[field].get("action") != "store_true":
            option.append("3")
        with pytest.raises(SystemExit) as exc:
            main([command, write(tmp_path, "in.json", SQUARE), *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


class TestHelpText:
    """The exact bytes of every ``--help`` and of a usage error, as argparse lays them out.

    Taken with Python 3.11's argparse.  A parser rewrite must keep them.
    """

    CHOICES = ("{body,graph,boundary,hypergraph,classify32,recognize-pentagon,construct-quad,"
               "voronoi-check,render}")

    # `equidist [COMMAND] --help` at 80 columns, by command ("" is the top level)
    HELP = {
        "": (
            "usage: equidist [-h]\n"
            "                " + CHOICES + "\n"
            "                ...\n"
            "\n"
            "Equidistant bodies and polygons of finite focal sets.\n"
            "\n"
            "positional arguments:\n"
            "  " + CHOICES + "\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "body": (
            "usage: equidist body [-h] [--out OUT] [--eps EPS] input\n"
            "\n"
            "positional arguments:\n"
            "  input       input JSON file (configuration or shape)\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --out OUT   output path (report JSON; SVG document for render)\n"
            "  --eps EPS   relative tolerance (default 1e-09): the boundary chains of body,\n"
            "              boundary and render merge each run of consecutive vertices\n"
            "              closer than eps times the extent of the focal points into its\n"
            "              first member, and start at their lowest vertex\n"
        ),
        "graph": (
            "usage: equidist graph [-h] [--out OUT] input\n"
            "\n"
            "positional arguments:\n"
            "  input       input JSON file (configuration or shape)\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --out OUT   output path (report JSON; SVG document for render)\n"
        ),
        "boundary": (
            "usage: equidist boundary [-h] [--out OUT] [--eps EPS] input\n"
            "\n"
            "positional arguments:\n"
            "  input       input JSON file (configuration or shape)\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --out OUT   output path (report JSON; SVG document for render)\n"
            "  --eps EPS   relative tolerance (default 1e-09): the boundary chains of body,\n"
            "              boundary and render merge each run of consecutive vertices\n"
            "              closer than eps times the extent of the focal points into its\n"
            "              first member, and start at their lowest vertex\n"
        ),
        "hypergraph": (
            "usage: equidist hypergraph [-h] [--out OUT] input\n"
            "\n"
            "positional arguments:\n"
            "  input       input JSON file (configuration or shape)\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --out OUT   output path (report JSON; SVG document for render)\n"
        ),
        "classify32": (
            "usage: equidist classify32 [-h] [--out OUT] input\n"
            "\n"
            "positional arguments:\n"
            "  input       input JSON file (configuration or shape)\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --out OUT   output path (report JSON; SVG document for render)\n"
        ),
        "recognize-pentagon": (
            "usage: equidist recognize-pentagon [-h] [--out OUT] input\n"
            "\n"
            "positional arguments:\n"
            "  input       input JSON file (configuration or shape)\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --out OUT   output path (report JSON; SVG document for render)\n"
        ),
        "construct-quad": (
            "usage: equidist construct-quad [-h] [--out OUT] [--t T] input\n"
            "\n"
            "positional arguments:\n"
            "  input       input JSON file (configuration or shape)\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --out OUT   output path (report JSON; SVG document for render)\n"
            "  --t T       construction parameter along the auxiliary ray (default:\n"
            "              midpoint of the feasible interval)\n"
        ),
        "voronoi-check": (
            "usage: equidist voronoi-check [-h] [--out OUT] [--samples SAMPLES]\n"
            "                              [--seed SEED]\n"
            "                              input\n"
            "\n"
            "positional arguments:\n"
            "  input              input JSON file (configuration or shape)\n"
            "\n"
            "options:\n"
            "  -h, --help         show this help message and exit\n"
            "  --out OUT          output path (report JSON; SVG document for render)\n"
            "  --samples SAMPLES  sample count for randomized checks\n"
            "  --seed SEED        seed for the deterministic generator (Mersenne Twister)\n"
        ),
        "render": (
            "usage: equidist render [-h] [--out OUT] [--eps EPS] [--show-circles]\n"
            "                       [--show-voronoi]\n"
            "                       input\n"
            "\n"
            "positional arguments:\n"
            "  input           input JSON file (configuration or shape)\n"
            "\n"
            "options:\n"
            "  -h, --help      show this help message and exit\n"
            "  --out OUT       output path (report JSON; SVG document for render)\n"
            "  --eps EPS       relative tolerance (default 1e-09): the boundary chains of\n"
            "                  body, boundary and render merge each run of consecutive\n"
            "                  vertices closer than eps times the extent of the focal\n"
            "                  points into its first member, and start at their lowest\n"
            "                  vertex\n"
            "  --show-circles  include colored-edge circumcircles\n"
            "  --show-voronoi  include Voronoi cells of the inner sites\n"
        ),
    }

    @pytest.mark.parametrize("command", HELP)
    def test_help_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (self.HELP[command], "")

    def test_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["body"])
        assert exc.value.code == 2
        assert capsys.readouterr() == (
            "", "usage: equidist body [-h] [--out OUT] [--eps EPS] input\n"
                "equidist body: error: the following arguments are required: input\n")


class TestChainStart:
    @pytest.mark.parametrize("cfg", [ring_config(random.Random(3), 8, 12),
                                     grid_config(random.Random(9), 8)], ids=["ring", "grid"])
    def test_chains_start_at_their_lowest_vertex(self, tmp_path, capsys, cfg):
        path = write(tmp_path, "cfg.json", {"inner": [[v.x, v.y] for v in cfg.inner],
                                            "outer": [[v.x, v.y] for v in cfg.outer]})
        chains = {}
        for command in ("body", "boundary"):
            code, out, _ = run_cli(capsys, [command, path])
            assert code == 0
            chains[command] = json.loads(out)["result"]["chains"]
        assert chains["body"] == chains["boundary"]
        for chain in chains["boundary"]:
            assert chain["vertices"][0] == min(chain["vertices"])
        svg_path = tmp_path / "cfg.svg"
        assert run_cli(capsys, ["render", path, "--out", str(svg_path)])[0] == 0
        body = svg_path.read_text().split('<g id="body"')[1].split("</g>")[0]
        paths = [d.split('"')[0].split() for d in body.split('d="')[1:]]
        assert len(paths) == len(chains["boundary"])
        for d in paths:  # "M x y L x y ... Z"; the y axis points down
            pts = [(float(d[t + 1]), -float(d[t + 2])) for t in range(0, len(d) - 1, 3)]
            assert pts[0] == min(pts)


class TestRenderSvg:
    def test_square_structure(self, tmp_path, capsys):
        svg_path = tmp_path / "sq.svg"
        code, out, _ = run_cli(capsys, ["render", write(tmp_path, "sq.json", SQUARE),
                                        "--out", str(svg_path)])
        assert code == 0
        doc = svg_path.read_text()
        assert doc.startswith("<?xml")
        assert 'version="1.1"' in doc
        # one closed body path, five markers (1 inner dot + 4 outer squares)
        body = doc.split('<g id="body"')[1].split("</g>")[0]
        assert body.count("<path") == 1 and body.count("Z") == 1
        inner = doc.split('<g id="inner-points"')[1].split("</g>")[0]
        outer = doc.split('<g id="outer-points"')[1].split("</g>")[0]
        assert inner.count("<circle") == 1
        assert outer.count("<rect") == 4

    def test_pentagon_circles_layer(self, tmp_path, capsys):
        svg_path = tmp_path / "p.svg"
        code, _, _ = run_cli(capsys, ["render", write(tmp_path, "g32.json", GENERIC_32),
                                      "--out", str(svg_path), "--show-circles"])
        assert code == 0
        doc = svg_path.read_text()
        circles = doc.split('<g id="circles"')[1].split("</g>")[0]
        assert circles.count("<circle") == 5  # one per chain vertex

    def test_irregular_input_shows_no_circles(self, tmp_path, capsys):
        # the four outer points lie on one circle: irregular input shows no circles
        doc = {"inner": [[0.1, 0.2]], "outer": SQUARE["outer"]}
        svg_path = tmp_path / "irr.svg"
        code, out, _ = run_cli(capsys, ["render", write(tmp_path, "irr.json", doc),
                                        "--out", str(svg_path), "--show-circles"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["circles"] == 0 and result["chains"] == 1
        assert '<g id="circles"' not in svg_path.read_text()

    def test_shape_only_scene(self, tmp_path, capsys):
        svg_path = tmp_path / "q.svg"
        code, _, _ = run_cli(capsys, ["render", write(tmp_path, "q.json", QUAD),
                                      "--out", str(svg_path)])
        assert code == 0
        doc = svg_path.read_text()
        assert '<rect id="frame"' in doc
        assert '<g id="body"' in doc

    def test_render_requires_out(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["render", write(tmp_path, "sq.json", SQUARE)])
        assert code == 2

    @pytest.mark.parametrize("flags", [[], ["--show-circles"], ["--show-voronoi"],
                                       ["--show-circles", "--show-voronoi"]])
    def test_layers_follow_the_flags(self, tmp_path, capsys, flags):
        # the scene holds circles and cells only when asked, and the SVG draws what it holds
        svg_path = tmp_path / "g32.svg"
        code, out, _ = run_cli(capsys, ["render", write(tmp_path, "g32.json", GENERIC_32),
                                        "--out", str(svg_path), *flags])
        assert code == 0
        result = json.loads(out)["result"]
        doc = svg_path.read_text()
        assert ('<g id="circles"' in doc) == ("--show-circles" in flags) == (result["circles"] > 0)
        assert ('<g id="voronoi"' in doc) == ("--show-voronoi" in flags) == (result["cells"] > 0)

    @pytest.mark.parametrize("cfg", [ring_config(random.Random(3), 8, 12),
                                     grid_config(random.Random(9), 8),
                                     FocalConfig.of(SQUARE["inner"], SQUARE["outer"])],
                             ids=["ring", "grid", "square"])
    def test_scene_scaled_by_a_power_of_two_draws_the_same_document(self, tmp_path, capsys,
                                                                    cfg):
        # the drawing is fitted to the scene's own span, so a scene smaller than any
        # absolute length is drawn as it is drawn at unit size
        docs = []
        for k in (0, -40):
            doc = {side: [[math.ldexp(v.x, k), math.ldexp(v.y, k)] for v in getattr(cfg, side)]
                   for side in ("inner", "outer")}
            svg_path = tmp_path / f"scaled{k}.svg"
            code, _, _ = run_cli(capsys, ["render", write(tmp_path, f"scaled{k}.json", doc),
                                          "--out", str(svg_path),
                                          "--show-circles", "--show-voronoi"])
            assert code == 0
            docs.append(svg_path.read_bytes())
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("point", [Point(3.0, -4.0), Point(2**-60, 0.0)])
    def test_single_point_scene_is_drawn_at_the_centre(self, point):
        from equidist.svg import Scene, render_svg
        doc = render_svg(Scene(inner=(point,)))
        assert '<circle cx="400" cy="400" r="5"/>' in doc

    def test_scene_at_the_bottom_of_the_float_range_is_drawn_as_at_unit_size(self):
        # the span 2**-1070 has no finite reciprocal
        from equidist.svg import Scene, render_svg
        assert (render_svg(Scene(inner=(Point(0.0, 0.0), Point(math.ldexp(1.0, -1070), 0.0))))
                == render_svg(Scene(inner=(Point(0.0, 0.0), Point(1.0, 0.0)))))

    def test_empty_scene_renders_frame_only(self):
        from equidist.svg import Scene, render_svg
        doc = render_svg(Scene())
        assert '<rect id="frame"' in doc
        assert "<path" not in doc and "<circle" not in doc
        assert doc.rstrip().endswith("</svg>")
