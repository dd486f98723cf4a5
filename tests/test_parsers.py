import json

import numpy as np
import pytest

from mfopt.harness import load_environment
from mfopt.parsers import ParseError, euc2d_distance, parse_problem
from mfopt.tasks import CvrpInstance, TspInstance

from conftest import format_tsplib, format_vrp

TSP_TEXT = """\
NAME: toy4
TYPE: TSP
COMMENT: hand-written square
DIMENSION: 4
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 10 0
3 10 10
4 0 10
EOF
"""

VRP_TEXT = """\
NAME : toyvrp
TYPE : CVRP
DIMENSION : 5
EDGE_WEIGHT_TYPE : EUC_2D
CAPACITY : 10
NODE_COORD_SECTION
 1 0 0
 2 10 0
 3 0 10
 4 -10 0
 5 0 -10
DEMAND_SECTION
 1 0
 2 5
 3 5
 4 5
 5 5
DEPOT_SECTION
 1
 -1
EOF
"""


class TestDistance:
    def test_nearest_integer(self):
        assert euc2d_distance((0, 0), (3, 4)) == 5
        assert euc2d_distance((0, 0), (1, 1)) == 1   # 1.414 -> 1
        assert euc2d_distance((0, 0), (1.5, 2)) == 3  # 2.5 -> 3 (half up)
        assert euc2d_distance((2, 2), (2, 2)) == 0


class TestTspParsing:
    def test_parse_square(self):
        inst = parse_problem(TSP_TEXT)
        assert inst.name == "toy4"
        assert inst.dimension == 4
        assert inst.cost(np.array([1, 2, 3, 4])) == 40.0

    def test_blank_lines_are_skipped(self):
        text = (TSP_TEXT.replace("TYPE: TSP\n", "TYPE: TSP\n\n  \n")
                .replace("2 10 0\n", "2 10 0\n\n"))
        assert text.count("\n\n") == 2
        inst, ref = parse_problem(text), parse_problem(TSP_TEXT)
        assert (inst.name, inst.dimension) == (ref.name, ref.dimension)
        np.testing.assert_array_equal(inst.coords, ref.coords)

    def test_wrong_type(self):
        with pytest.raises(ParseError, match="TYPE"):
            parse_problem(TSP_TEXT.replace("TYPE: TSP", "TYPE: ATSP"))

    def test_unsupported_edge_weights(self):
        with pytest.raises(ParseError, match="EDGE_WEIGHT_TYPE"):
            parse_problem(TSP_TEXT.replace("EUC_2D", "GEO"))

    def test_missing_header(self):
        with pytest.raises(ParseError, match="DIMENSION"):
            parse_problem(TSP_TEXT.replace("DIMENSION: 4\n", ""))

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError, match="NODE_COORD_SECTION has no node 4"):
            parse_problem(TSP_TEXT.replace("4 0 10\n", ""))
        # A huge DIMENSION is reported without allocating per declared node.
        with pytest.raises(ParseError, match="NODE_COORD_SECTION has no node 5"):
            parse_problem(TSP_TEXT.replace("DIMENSION: 4", "DIMENSION: 1000000000"))

    def test_node_id_out_of_range(self):
        with pytest.raises(ParseError, match="node id"):
            parse_problem(TSP_TEXT.replace("4 0 10", "9 0 10"))

    def test_unknown_header_warns_not_fails(self, caplog):
        text = TSP_TEXT.replace("TYPE: TSP", "TYPE: TSP\nDISPLAY_DATA_TYPE: COORD_DISPLAY")
        with caplog.at_level("WARNING"):
            inst = parse_problem(text)
        assert inst.dimension == 4
        assert "DISPLAY_DATA_TYPE" in caplog.text

    @pytest.mark.parametrize("line", [":", ": oops"])
    def test_empty_header_keyword_warns_not_fails(self, line, caplog):
        text = TSP_TEXT.replace("TYPE: TSP", f"TYPE: TSP\n{line}")
        with caplog.at_level("WARNING"):
            inst = parse_problem(text)
        assert inst.dimension == 4
        assert "unknown header keyword '' (line 3)" in caplog.text

    def test_roundtrip(self):
        inst = parse_problem(TSP_TEXT)
        again = parse_problem(format_tsplib(inst))
        assert again.name == inst.name
        assert np.array_equal(again.coords, inst.coords)


class TestVrpParsing:
    def test_parse_toy(self):
        inst = parse_problem(VRP_TEXT)
        assert inst.name == "toyvrp"
        assert inst.dimension == 4  # depot excluded
        assert inst.capacity == 10
        assert inst.depot_coord == (0.0, 0.0)
        assert list(inst.demands) == [5, 5, 5, 5]

    def test_demand_over_capacity(self):
        with pytest.raises(ParseError, match="exceeds capacity"):
            parse_problem(VRP_TEXT.replace(" 2 5", " 2 11"))

    def test_negative_demand(self):
        with pytest.raises(ParseError, match="negative"):
            parse_problem(VRP_TEXT.replace(" 2 5", " 2 -1"))

    def test_missing_demand_entry(self):
        with pytest.raises(ParseError, match="DEMAND_SECTION has no node 5"):
            parse_problem(VRP_TEXT.replace(" 5 5\n", ""))

    def test_two_depots_rejected(self):
        with pytest.raises(ParseError, match="depot"):
            parse_problem(VRP_TEXT.replace("DEPOT_SECTION\n 1", "DEPOT_SECTION\n 1\n 2"))

    @pytest.mark.parametrize("depot", ["0", "-3", "9"])
    def test_depot_id_out_of_range(self, depot):
        with pytest.raises(ParseError, match=f"line 19: depot id {depot} outside 1..5"):
            parse_problem(VRP_TEXT.replace("DEPOT_SECTION\n 1", f"DEPOT_SECTION\n {depot}"))

    @pytest.mark.parametrize("text", [
        VRP_TEXT.replace("EUC_2D", "GEO"),
        VRP_TEXT.replace("EDGE_WEIGHT_TYPE : EUC_2D\n", ""),
    ], ids=["GEO", "missing"])
    def test_edge_weight_type_checked(self, text):
        with pytest.raises(ParseError, match="EDGE_WEIGHT_TYPE"):
            parse_problem(text)

    def test_roundtrip(self):
        inst = parse_problem(VRP_TEXT)
        again = parse_problem(format_vrp(inst))
        assert again.capacity == inst.capacity
        assert np.array_equal(again.customer_coords, inst.customer_coords)
        assert np.array_equal(again.demands, inst.demands)
        assert again.depot_coord == inst.depot_coord


class TestNumericFields:
    @pytest.mark.parametrize("text, match", [
        (TSP_TEXT.replace("2 10 0", "x 10 0"), "line 8: node id"),
        (TSP_TEXT.replace("2 10 0", "2 1x 0"), "line 8: x coordinate"),
        (TSP_TEXT.replace("2 10 0", "2 nan 0"), "line 8: x coordinate is not a finite number"),
        (TSP_TEXT.replace("2 10 0", "2 10 inf"), "line 8: y coordinate is not a finite number"),
        (TSP_TEXT.replace("2 10 0", "2 1e400 0"), "line 8: x coordinate is not a finite number"),
        (VRP_TEXT.replace(" 3 5\n", " 3 x\n"), "line 15: demand"),
        (VRP_TEXT.replace(" 3 5\n", " 3 99999999999999999999\n"),
         "DEMAND_SECTION has a number outside the 64-bit range"),
        (VRP_TEXT.replace("DEPOT_SECTION\n 1", "DEPOT_SECTION\n x"), "line 19: depot id"),
        (TSP_TEXT.replace("DIMENSION: 4", "DIMENSION: four"), "DIMENSION"),
        (VRP_TEXT.replace("CAPACITY : 10", "CAPACITY : 1O"), "CAPACITY"),
    ], ids=["node id", "coordinate", "nan coordinate", "inf coordinate", "1e400 coordinate",
            "demand", "64-bit demand", "depot id", "DIMENSION", "CAPACITY"])
    def test_non_numeric_field(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_problem(text)

    @pytest.mark.parametrize("dimension", ["-1", "0"])
    @pytest.mark.parametrize("text, header", [
        (TSP_TEXT, "DIMENSION: 4"), (VRP_TEXT, "DIMENSION : 5"),
    ], ids=["TSP", "CVRP"])
    def test_non_positive_dimension(self, text, header, dimension):
        with pytest.raises(ParseError, match="DIMENSION must be a positive integer"):
            parse_problem(text.replace(header, f"DIMENSION: {dimension}"))


class TestNodeSections:
    @pytest.mark.parametrize("text, match", [
        (TSP_TEXT.replace("4 0 10", "2 0 10"), "line 10: node id 2 repeats line 8"),
        (VRP_TEXT.replace(" 3 5\n", " 3 5\n 3 9\n"), "line 16: node id 3 repeats line 15"),
        (TSP_TEXT.replace("2 10 0", "2 10"), "line 8: expected node id, x coordinate, y coordinate"),
        (VRP_TEXT.replace(" 3 5\n", " 3 5 5\n"), "line 15: expected node id, demand;"),
        (VRP_TEXT.replace(" 5 5\n", " 6 5\n"), "line 17: node id 6 outside 1..5"),
        (TSP_TEXT.replace("NAME: toy4", "NAME: toy4\n7 7 7"), "line 2: unexpected content"),
        (TSP_TEXT.replace("EOF", "NODE_COORD_SECTION\n1 5 5\n2 5 9\n3 9 9\n4 9 5\nEOF"),
         "line 11: NODE_COORD_SECTION repeats line 6"),
        (TSP_TEXT.replace("DIMENSION: 4", "DIMENSION: 9\nDIMENSION: 4"),
         "line 5: DIMENSION repeats line 4"),
        (VRP_TEXT.replace(" 1 0\n", " 1 7\n"), "line 13: depot demand must be 0, got 7"),
    ], ids=["repeated node id", "repeated demand id", "coordinate field count",
            "demand field count", "demand id outside", "content before a section",
            "repeated section", "repeated keyword", "depot demand"])
    def test_bad_line_is_named(self, text, match):
        with pytest.raises(ParseError, match=match) as exc:
            parse_problem(text)
        assert exc.value.line is not None


class TestDispatch:
    def test_type_header_picks_instance(self):
        assert isinstance(parse_problem(TSP_TEXT), TspInstance)
        assert isinstance(parse_problem(VRP_TEXT), CvrpInstance)

    def test_unsupported_type(self):
        with pytest.raises(ParseError, match="TYPE"):
            parse_problem(TSP_TEXT.replace("TYPE: TSP", "TYPE: HCP"))

    def test_kind_comes_from_header_not_extension(self, tmp_path):
        (tmp_path / "odd.tsp").write_text(VRP_TEXT)
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps({"instances": ["odd.tsp"]}))
        assert isinstance(load_environment(str(cfg)).tasks[0], CvrpInstance)
