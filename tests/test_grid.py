import re

import numpy as np
import pytest

from stealthgame.grid import (
    Branch,
    BusNetwork,
    JacobianMatrix,
    NetworkFormatError,
    build_dc_jacobian,
    bundled_case,
    load_matrix,
    parse_network,
    serialize_network,
)

TWO_BUS = "bus 2\nslack 1\nbranch 1 2 10.0\n"
RING = "bus 3\nslack 1\nbranch 1 2 1.0\nbranch 2 3 1.0\nbranch 1 3 1.0\n"


class TestParseNetwork:
    def test_smallest_legal_network(self):
        net = parse_network(TWO_BUS)
        assert net.n_bus == 2
        assert net.slack == 1
        assert net.branches == (Branch(1, 2, 10.0),)

    def test_dangling_bus_index(self):
        with pytest.raises(NetworkFormatError, match="dangling"):
            parse_network("bus 2\nslack 1\nbranch 1 3 10.0\n")

    def test_three_bus_ring(self):
        net = parse_network(RING)
        assert len(net.branches) == 3

    def test_comments_and_blank_lines(self):
        text = "# header\n\nbus 2\nslack 1  # the hub\nbranch 1 2 10.0\n"
        assert parse_network(text) == parse_network(TWO_BUS)

    def test_reactance_prefix(self):
        net = parse_network("bus 2\nbranch 1 2 x:0.25\n")
        assert net.branches[0].susceptance == pytest.approx(4.0)

    def test_default_slack_is_bus_one(self):
        assert parse_network("bus 2\nbranch 1 2 1.0\n").slack == 1

    def test_duplicate_slack(self):
        with pytest.raises(NetworkFormatError, match="line 3.*duplicate slack"):
            parse_network("bus 2\nslack 1\nslack 2\nbranch 1 2 1.0\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(NetworkFormatError, match="line 2"):
            parse_network("bus 2\nbranch 1 two 1.0\n")

    def test_unknown_directive(self):
        with pytest.raises(NetworkFormatError, match="unknown directive"):
            parse_network("bus 2\ngenerator 1\n")

    def test_missing_bus_declaration(self):
        with pytest.raises(NetworkFormatError, match="missing bus"):
            parse_network("branch 1 2 1.0\n")

    def test_disconnected_graph(self):
        text = "bus 4\nslack 1\nbranch 1 2 1.0\nbranch 3 4 1.0\n"
        with pytest.raises(NetworkFormatError, match="not connected"):
            parse_network(text)

    def test_self_loop(self):
        with pytest.raises(NetworkFormatError, match="from_bus equals"):
            parse_network("bus 2\nbranch 2 2 1.0\nbranch 1 2 1.0\n")

    def test_nonpositive_susceptance(self):
        with pytest.raises(NetworkFormatError, match="positive"):
            parse_network("bus 2\nbranch 1 2 -3.0\n")

    def test_slack_out_of_range(self):
        with pytest.raises(NetworkFormatError, match="slack"):
            parse_network("bus 2\nslack 5\nbranch 1 2 1.0\n")

    @pytest.mark.parametrize("text", [TWO_BUS, RING])
    def test_serialize_roundtrip(self, text):
        net = parse_network(text)
        assert parse_network(serialize_network(net)) == net

    def test_serialize_roundtrip_random(self, rng):
        for _ in range(20):
            n_bus = int(rng.integers(2, 8))
            branches = [
                Branch(k, k + 1, float(rng.uniform(0.1, 50.0)))
                for k in range(1, n_bus)
            ]
            for _ in range(int(rng.integers(0, 4))):
                a, b = rng.choice(np.arange(1, n_bus + 1), size=2, replace=False)
                branches.append(Branch(int(a), int(b), float(rng.uniform(0.1, 50.0))))
            net = BusNetwork(n_bus, int(rng.integers(1, n_bus + 1)), tuple(branches))
            assert parse_network(serialize_network(net)) == net


class TestErrorsNameTheLine:
    # A comment line first, and a good branch before the bad one, so a
    # branch's line number is not its index plus one.
    @pytest.mark.parametrize("bad,message", [
        ("branch 1 2 -1", "susceptance must be finite and positive"),
        ("branch 1 2 0", "susceptance must be finite and positive"),
        ("branch 2 2 1", "from_bus equals to_bus"),
        ("branch 1 3 1", r"\(1-3\): dangling bus index"),
    ], ids=["negative", "zero", "self-loop", "dangling"])
    def test_branch_error(self, bad, message):
        text = f"# two buses\nbus 2\n\nbranch 1 2 1\n{bad}\n"
        with pytest.raises(NetworkFormatError,
                           match=f"^line 5: branch 2:? .*{message}"):
            parse_network(text)

    def test_bus_declared_after_the_branches(self):
        with pytest.raises(NetworkFormatError, match="^line 3: branch 2 .*dangling"):
            parse_network("# c\nbranch 1 2 1\nbranch 1 3 1\nbus 2\n")

    def test_slack_out_of_range(self):
        with pytest.raises(NetworkFormatError,
                           match=r"^line 3: slack bus 5 outside \[1, 2\]"):
            parse_network("# c\nbus 2\nslack 5\nbranch 1 2 1\n")

    def test_bus_count_below_one(self):
        with pytest.raises(NetworkFormatError, match="^line 2: n_bus must be positive"):
            parse_network("# c\nbus 0\n")

    def test_library_network_names_the_branch(self):
        with pytest.raises(NetworkFormatError, match="^branch 2: from_bus equals"):
            BusNetwork(2, 1, (Branch(1, 2, 1.0), Branch(2, 2, 1.0)))


class TestBuildDcJacobian:
    def test_two_bus_hand_derived(self):
        # P_12 = b (theta_1 - theta_2) with theta_1 the removed slack angle.
        jac = build_dc_jacobian(parse_network(TWO_BUS))
        np.testing.assert_allclose(jac.H, [[-10.0], [-10.0], [10.0]])

    def test_dimensions(self):
        jac = build_dc_jacobian(parse_network(RING))
        assert jac.m == 3 + 3
        assert jac.n == 3 - 1

    @pytest.mark.parametrize("text", [TWO_BUS, RING])
    def test_injection_rows_sum_to_zero(self, text):
        net = parse_network(text)
        jac = build_dc_jacobian(net)
        total = jac.H[len(net.branches) :].sum(axis=0)
        np.testing.assert_allclose(total, 0.0, atol=1e-12)

    def test_injection_rows_sum_to_zero_random_networks(self, rng):
        # Flow conservation: net injection over all buses vanishes.
        for _ in range(20):
            n_bus = int(rng.integers(2, 9))
            branches = [
                Branch(k, k + 1, float(rng.uniform(0.1, 40.0)))
                for k in range(1, n_bus)
            ]
            for _ in range(int(rng.integers(0, 5))):
                a, b = rng.choice(np.arange(1, n_bus + 1), size=2, replace=False)
                branches.append(Branch(int(a), int(b), float(rng.uniform(0.1, 40.0))))
            net = BusNetwork(n_bus, int(rng.integers(1, n_bus + 1)), tuple(branches))
            jac = build_dc_jacobian(net)
            total = jac.H[len(net.branches) :].sum(axis=0)
            np.testing.assert_allclose(total, 0.0, atol=1e-12)
            assert np.linalg.matrix_rank(jac.H) == jac.n

    def test_injection_is_signed_sum_of_incident_flows(self):
        net = parse_network(RING)
        jac = build_dc_jacobian(net)
        n_branch = len(net.branches)
        for bus in range(1, net.n_bus + 1):
            expected = np.zeros(jac.n)
            for k, br in enumerate(net.branches):
                if br.from_bus == bus:
                    expected += jac.H[k]
                elif br.to_bus == bus:
                    expected -= jac.H[k]
            np.testing.assert_allclose(jac.H[n_branch + bus - 1], expected)

    @pytest.mark.parametrize("text", [TWO_BUS, RING])
    def test_full_column_rank_when_connected(self, text):
        jac = build_dc_jacobian(parse_network(text))
        assert np.linalg.matrix_rank(jac.H) == jac.n

    def test_nondefault_slack_drops_right_column(self):
        net = parse_network("bus 3\nslack 2\nbranch 1 2 1.0\nbranch 2 3 1.0\n")
        jac = build_dc_jacobian(net)
        # states are theta_1 and theta_3
        np.testing.assert_allclose(jac.H[0], [1.0, 0.0])   # flow(1,2) = b*theta_1
        np.testing.assert_allclose(jac.H[1], [0.0, -1.0])  # flow(2,3) = -b*theta_3


class TestLoadMatrix:
    def test_identity(self):
        jac = load_matrix("1 0\n0 1\n")
        np.testing.assert_allclose(jac.H, np.eye(2))

    def test_single_row(self):
        assert load_matrix("1 2 3\n").H.shape == (1, 3)

    def test_comma_separated(self):
        np.testing.assert_allclose(load_matrix("1,2\n3,4\n").H, [[1, 2], [3, 4]])

    @pytest.mark.parametrize(
        "text", ["1, 2\n3 ,4\n", "1 2\n3,4\n", "1 ,2\n3, 4\n"], ids=["after", "mixed", "both"]
    )
    def test_spaces_around_commas(self, text):
        np.testing.assert_array_equal(load_matrix(text).H, [[1, 2], [3, 4]])

    @pytest.mark.parametrize(
        "text,lineno",
        [("1,2\n3,,4\n", 2), ("1,2,\n", 1), (",1\n", 1)],
        ids=["middle", "trailing", "leading"],
    )
    def test_empty_comma_field(self, text, lineno):
        # A missing value would otherwise shift the row's later columns.
        with pytest.raises(NetworkFormatError, match=f"line {lineno}: non-numeric"):
            load_matrix(text)

    def test_ragged_rows(self):
        with pytest.raises(NetworkFormatError, match="ragged"):
            load_matrix("1 2\n3\n")

    def test_non_numeric(self):
        with pytest.raises(NetworkFormatError, match="non-numeric"):
            load_matrix("1 x\n")

    def test_empty(self):
        with pytest.raises(NetworkFormatError, match="empty"):
            load_matrix("# nothing here\n")

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 1)])
    def test_jacobian_must_be_2d(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"H must be 2-D, got shape {shape}")):
            JacobianMatrix(np.ones(shape))


class TestBundledCase:
    def test_ieee9_dimensions(self):
        with open(bundled_case("ieee9"), encoding="utf-8") as fh:
            net = parse_network(fh.read())
        jac = build_dc_jacobian(net)
        assert (jac.m, jac.n) == (18, 8)

    def test_unknown_case(self):
        with pytest.raises(FileNotFoundError):
            bundled_case("ieee1234")
