"""Fuzzed input at the file boundaries (hypothesis).

Texts are built from the file grammars' tokens plus values that have
broken parsers before: huge integers, ``nan``, ``inf``, ``1e400``,
``0x10``, ``1_0``, non-ASCII digits, NUL and an undecodable byte.
Examples are derandomized, so every run draws the same ones and writes
no example database.
"""

import json
import time

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stealthgame.cli import main
from stealthgame.grid import build_dc_jacobian, load_matrix, parse_network

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)
FUZZ_CLI = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

ODD = ["nan", "inf", "-inf", "1e400", "0x10", "1_0", "٣", "\x00", "9" * 30,
       "9" * 5000, "-1", "0"]
# Valid tokens are repeated so that most drawn files hold a model.
INDICES = ["1", "2", "3", "1", "2", "3", "4", *ODD]
VALUES = ["1", "2.5", "x:0.1"] * 10 + ["1e-300", "1e300", "x:1e-320", *ODD]
MATRIX_VALUES = ["1", "0", "-2.5", "0.5"] * 8 + ["1e150", "1e300", "1e-170", *ODD]

free_lines = st.one_of(
    st.builds("bus {}".format, st.sampled_from(INDICES)),
    st.builds("slack {}".format, st.sampled_from(INDICES)),
    st.builds("branch {} {} {}".format, st.sampled_from(INDICES),
              st.sampled_from(INDICES), st.sampled_from(VALUES)),
    st.lists(st.sampled_from(["bus", "slack", "branch", "#", "x:", *INDICES]),
             max_size=5).map(" ".join),
)


@st.composite
def network_texts(draw):
    """A chain of buses plus chords, each line kept or replaced by a free one."""
    n_bus = draw(st.integers(2, 4))
    pairs = [(k, k + 1) for k in range(1, n_bus)]
    pairs += draw(st.lists(st.tuples(st.integers(1, n_bus), st.integers(1, n_bus)),
                           max_size=2))
    lines = [f"bus {n_bus}"] + [
        f"branch {a} {b} {draw(st.sampled_from(VALUES))}" for a, b in pairs
    ]
    lines = [draw(rarely(free_lines)) or line for line in lines]
    lines += draw(st.lists(free_lines, max_size=1))
    return "\n".join(draw(st.permutations(lines)))


@st.composite
def matrix_texts(draw):
    n_col = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.sampled_from(MATRIX_VALUES), min_size=n_col,
                                  max_size=n_col + (draw(rarely(st.just(1))) or 0)),
                         max_size=4))
    return "\n".join(" ".join(row) for row in rows)


NE_PARTS = ['{"v_star": [', "]", "}", "[", ", ", "0", "0.5", "1e308", "NaN",
            "Infinity", "-1", '"a"', "true", "9" * 400]
ne_texts = st.one_of(
    st.lists(st.floats(0.0, 10.0), max_size=12).map(lambda v: json.dumps({"v_star": v})),
    st.lists(st.sampled_from(NE_PARTS), max_size=8).map("".join),
)


def rarely(strategy):
    """A draw of ``strategy`` one time in six, None otherwise."""
    return st.sampled_from([False] * 5 + [True]).flatmap(
        lambda draw_it: strategy if draw_it else st.none())


def encoded(text_strategy):
    """UTF-8 bytes of a drawn text, sometimes with an undecodable byte."""
    return st.tuples(text_strategy, rarely(st.just(b"\xff"))).map(
        lambda pair: pair[0].encode("utf-8") + (pair[1] or b""))


@FUZZ
@given(network=network_texts(), matrix=matrix_texts())
@example(network="bus 999999999999999999999999999999\nbranch 1 2 1", matrix="1")
def test_parsers_raise_only_value_error(network, matrix):
    start = time.perf_counter()
    try:
        net = parse_network(network)
    except ValueError:
        pass
    else:
        H = build_dc_jacobian(net).H
        assert H.shape == (len(net.branches) + net.n_bus, net.n_bus - 1)
    try:
        load_matrix(matrix)
    except ValueError:
        pass
    assert time.perf_counter() - start < 1.0


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


@FUZZ_CLI
@given(
    command=st.sampled_from(["build", "run", "sweep", "detect"]),
    flag=st.sampled_from(["--case", "--h-matrix"]),
    network=encoded(network_texts()),
    matrix=encoded(matrix_texts()),
    ne=st.one_of(st.none(), encoded(ne_texts)),
    noise=st.sampled_from([("--snr-db", "10"), ("--sigma2", "1")]),
)
@example(command="build", flag="--h-matrix", network=b"", matrix=b"0 0\n0 0",
         ne=b"", noise=("--sigma2", "1"))
@example(command="build", flag="--h-matrix", network=b"", matrix=b"1 0\n0 0",
         ne=b"", noise=("--sigma2", "1"))
@example(command="run", flag="--case", network=b"bus 3\nbranch 1 2 1\nbranch 2 3 1",
         matrix=b"", ne=b"", noise=("--snr-db", "10"))
@example(command="detect", flag="--case", network=b"bus 2\nbranch 1 2 1", matrix=b"",
         ne=b'{"v_star": [1, 0, 0]}', noise=("--sigma2", "1"))
@example(command="run", flag="--h-matrix", network=b"", matrix=b"1e150", ne=None,
         noise=("--snr-db", "10"))
@example(command="sweep", flag="--h-matrix", network=b"", matrix=b"1e150", ne=b"",
         noise=("--snr-db", "10"))
def test_main_on_fuzzed_files(tmp_path, capsys, command, flag, network, matrix, ne,
                              noise):
    # Every exit 4 names an input file, stderr holds at most one line,
    # and every JSON output is standard JSON.
    for path in tmp_path.iterdir():
        path.unlink()
    source = tmp_path / ("in.net" if flag == "--case" else "in.mat")
    source.write_bytes(network if flag == "--case" else matrix)
    model = [flag, str(source), "--rho", "0.5", *noise]
    out = tmp_path / "out"
    ne_path = tmp_path / "out.ne.json"
    if ne is None:  # detect reads the NE file of a run on the same model
        main(["run", *model, "--game", "1", "--lambda", "2", "--out", str(out)])
        capsys.readouterr()
    else:
        ne_path.write_bytes(ne)
    rc = main([command, *model, *{
        "build": [],
        "run": ["--game", "1", "--lambda", "2", "--out", str(out)],
        "sweep": ["--game", "3", "--lambda-list", "1,2", "--out", str(out)],
        "detect": ["--ne", str(ne_path), "--samples", "1000", "--out", str(out)],
    }[command]])
    stdout, err = capsys.readouterr()
    assert rc in (0, 3, 4)
    assert err.count("\n") == (rc == 4)
    if rc == 4:
        assert err.startswith((f"error: {source}: ", f"error: {ne_path}: "))
    elif command == "build":
        _strict_json(stdout)
    elif command == "run":
        _strict_json(ne_path.read_text())

