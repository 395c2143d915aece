"""End-to-end CLI runs: reports, exit codes, determinism, SVG structure."""

import json
import math

import pytest

from equidist import cli
from equidist.cli import format_json, main

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
        assert cert["residual"] < 1e-12
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

    @pytest.mark.parametrize("flag, value", [
        ("--eps", "nan"), ("--eps", "inf"), ("--eps", "0"),
        ("--clip-scale", "0"), ("--clip-scale", "-1"), ("--clip-scale", "nan"),
        ("--clip-scale", "inf"), ("--clip-scale", "1.7e308"),
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
    def test_area_beyond_float_shoelace_sum(self, tmp_path, capsys, command):
        # the float shoelace sum 2e308 overflows, the true area s * s = 1e308 does not
        s = 1e154
        code, out, _ = run_cli(capsys, [command, write(tmp_path, "h.json", huge_square(s))])
        assert code == 0
        assert [ch["area"] for ch in json.loads(out)["result"]["chains"]] == [s * s]

    def test_non_finite_report_value_is_error_object(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._DISPATCH, "body", lambda rc, data: {"area": math.inf})
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

    @pytest.mark.parametrize("command, doc", [
        *((command, huge_square(10 ** 400)) for command in ("body", "boundary", "graph", "hypergraph")),
        ("recognize-pentagon", {"polygon": [[0, 0], [10 ** 400, 0], [2, 2], [0, 6], [-1, 3]]}),
    ])
    def test_integer_beyond_float_range_is_parse_failure(self, tmp_path, capsys, command, doc):
        code, out, err = run_cli(capsys, [command, write(tmp_path, "h.json", doc)])
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

    def test_unbounded_is_validation_failure(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["body", write(tmp_path, "u.json", UNBOUNDED)])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "Unbounded"


class TestExactConstructions:
    @pytest.mark.parametrize("scale", ["1e10", "1e12", "1e300"])
    def test_boundary_at_large_clip_scale(self, tmp_path, capsys, scale):
        path = write(tmp_path, "sq.json", SQUARE)
        code, out, _ = run_cli(capsys, ["boundary", path, f"--clip-scale={scale}"])
        assert code == 0
        chains = json.loads(out)["result"]["chains"]
        assert len(chains) == 1
        assert sorted(map(tuple, chains[0]["vertices"])) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

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

    def test_empty_scene_renders_frame_only(self):
        from equidist.svg import Scene, render_svg
        doc = render_svg(Scene())
        assert '<rect id="frame"' in doc
        assert "<path" not in doc and "<circle" not in doc
        assert doc.rstrip().endswith("</svg>")
