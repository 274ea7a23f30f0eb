"""Bus/branch network descriptions and the DC measurement matrix.

Network file format (UTF-8, line oriented, ``#`` starts a comment):

    bus <n_bus>
    slack <index>                  # optional, defaults to bus 1
    branch <from> <to> <value>     # value = susceptance, or x:<reactance>

Bus indices are 1-based, as in common case-data conventions.  The
measurement set is one active-power flow per branch (from -> to
direction only) plus one power injection per bus, so ``m = n_branch +
n_bus``.  The slack bus angle is the removed state column, giving
``n = n_bus - 1`` states.  The branches must connect every bus, so
``n_bus <= n_branch + 1``.

The parser converts each line's tokens; :class:`BusNetwork` then checks
the values, susceptances included, once, and :func:`parse_network` names
the file line of the part at fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Branch",
    "BusNetwork",
    "JacobianMatrix",
    "NetworkFormatError",
    "parse_network",
    "serialize_network",
    "build_dc_jacobian",
    "load_matrix",
    "bundled_case",
]


class NetworkFormatError(ValueError):
    """Raised for malformed or inconsistent network/matrix files."""


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    susceptance: float


@dataclass(frozen=True)
class BusNetwork:
    """Validated bus/branch topology with per-unit susceptances."""

    n_bus: int
    slack: int
    branches: tuple[Branch, ...]

    def __post_init__(self):
        _check_network(self.n_bus, self.slack, self.branches)


def _check_network(n_bus: int, slack: int, branches) -> None:
    """Validate a network's parts.  An error's ``part`` is the part at
    fault: "bus", "slack", a 0-based branch index, or None for the graph."""

    def fail(part, message):
        error = NetworkFormatError(message)
        error.part = part
        raise error

    if n_bus < 1:
        fail("bus", f"n_bus must be positive, got {n_bus}")
    if not 1 <= slack <= n_bus:
        fail("slack", f"slack bus {slack} outside [1, {n_bus}]")
    for k, br in enumerate(branches):
        if not (1 <= br.from_bus <= n_bus and 1 <= br.to_bus <= n_bus):
            fail(k, f"branch {k + 1} ({br.from_bus}-{br.to_bus}): dangling bus index")
        if br.from_bus == br.to_bus:
            fail(k, f"branch {k + 1}: from_bus equals to_bus ({br.from_bus})")
        if not (br.susceptance > 0 and math.isfinite(br.susceptance)):
            fail(k, f"branch {k + 1}: susceptance must be finite and positive, "
                    f"got {br.susceptance}")
    # Fewer than n_bus - 1 branches cannot connect n_bus buses.
    if n_bus > len(branches) + 1 or not _connected(n_bus, branches):
        fail(None, "branch graph is not connected")


def _connected(n_bus: int, branches: tuple[Branch, ...]) -> bool:
    # Union-find over the undirected branch graph.
    parent = list(range(n_bus + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for br in branches:
        ra, rb = find(br.from_bus), find(br.to_bus)
        if ra != rb:
            parent[rb] = ra
    root = find(1)
    return all(find(b) == root for b in range(1, n_bus + 1))


@dataclass(frozen=True)
class JacobianMatrix:
    """Dense measurement matrix ``H``: one row per measurement, in the
    order :func:`build_dc_jacobian` or :func:`load_matrix` documents, and
    one column per state."""

    H: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        if H.ndim != 2:
            raise ValueError(f"H must be 2-D, got shape {H.shape}")
        object.__setattr__(self, "H", H)

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def n(self) -> int:
        return self.H.shape[1]


def parse_network(text: str) -> BusNetwork:
    """Parse a network file into a validated :class:`BusNetwork`.

    Branch order is preserved from the file.  An error about one line
    reports its 1-based number.
    """
    declared: dict[str, int] = {}  # the bus count and the slack bus
    lines: dict = {}  # the line of each declaration and of each branch
    branches: list[Branch] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive = tokens[0].lower()
        if directive in ("bus", "slack"):
            if directive in declared:
                raise NetworkFormatError(
                    f"line {lineno}: duplicate {directive} declaration"
                )
            declared[directive] = _parse_int(tokens, 1, lineno, expected=2)
            lines[directive] = lineno
        elif directive == "branch":
            if len(tokens) != 4:
                raise NetworkFormatError(
                    f"line {lineno}: branch needs <from> <to> <value>"
                )
            f = _parse_int(tokens, 1, lineno)
            t = _parse_int(tokens, 2, lineno)
            b = _parse_branch_value(tokens[3], lineno)
            lines[len(branches)] = lineno
            branches.append(Branch(f, t, b))
        else:
            raise NetworkFormatError(
                f"line {lineno}: unknown directive {directive!r}"
            )
    if "bus" not in declared:
        raise NetworkFormatError("missing bus declaration")
    try:
        return BusNetwork(declared["bus"], declared.get("slack", 1), tuple(branches))
    except NetworkFormatError as exc:
        where = f"line {lines[exc.part]}: " if exc.part in lines else ""
        raise NetworkFormatError(where + str(exc)) from None


def _parse_int(tokens: list[str], pos: int, lineno: int, expected: int | None = None) -> int:
    if expected is not None and len(tokens) != expected:
        raise NetworkFormatError(
            f"line {lineno}: expected {expected - 1} argument(s) for {tokens[0]}"
        )
    try:
        return int(tokens[pos])
    except (ValueError, IndexError):
        raise NetworkFormatError(
            f"line {lineno}: expected integer, got {tokens[pos] if pos < len(tokens) else 'nothing'!r}"
        ) from None


def _parse_branch_value(token: str, lineno: int) -> float:
    # Bare number = susceptance; "x:<value>" = reactance, converted as b = 1/x.
    # BusNetwork checks the susceptance; parse_network names the line.
    is_reactance = token.lower().startswith("x:")
    body = token[2:] if is_reactance else token
    try:
        value = float(body)
    except ValueError:
        raise NetworkFormatError(
            f"line {lineno}: bad branch value {token!r}"
        ) from None
    if is_reactance:
        if not (value > 0 and math.isfinite(value)):
            raise NetworkFormatError(
                f"line {lineno}: reactance must be finite and positive, got {value}"
            )
        return 1.0 / value
    return value


def serialize_network(net: BusNetwork) -> str:
    """Inverse of :func:`parse_network` (susceptance form, full precision)."""
    lines = [f"bus {net.n_bus}", f"slack {net.slack}"]
    lines.extend(
        f"branch {br.from_bus} {br.to_bus} {br.susceptance:.17g}"
        for br in net.branches
    )
    return "\n".join(lines) + "\n"


def build_dc_jacobian(net: BusNetwork) -> JacobianMatrix:
    """Build the DC measurement matrix for a network.

    Rows are the branch flows in file order, then one injection per
    bus.  The flow row for branch ``(i, j)`` with susceptance ``b``
    carries ``+b`` in the column of the from-bus angle and ``-b`` in
    the column of the to-bus angle (slack column dropped); injection
    rows are the signed sums of their incident flow rows.
    """
    n_branch = len(net.branches)
    # One column per bus angle until the slack column is dropped at the end.
    H = np.zeros((n_branch + net.n_bus, net.n_bus))
    for k, br in enumerate(net.branches):
        H[k, br.from_bus - 1] = br.susceptance
        H[k, br.to_bus - 1] = -br.susceptance
        H[n_branch + br.from_bus - 1] += H[k]
        H[n_branch + br.to_bus - 1] -= H[k]
    return JacobianMatrix(H=np.delete(H, net.slack - 1, axis=1))


def load_matrix(text: str) -> JacobianMatrix:
    """Load a dense numeric matrix (whitespace- or comma-separated), one
    measurement per row in file order.  An empty comma-separated field,
    as in ``1,,2`` or ``1,2,``, is a non-numeric token, not a skipped one."""
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = [tok for field in line.split(",") for tok in field.split() or [""]]
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError as exc:
            raise NetworkFormatError(f"line {lineno}: non-numeric token ({exc})") from None
        if not all(math.isfinite(x) for x in rows[-1]):
            raise NetworkFormatError(f"line {lineno}: matrix entries must be finite")
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise NetworkFormatError(
                f"line {lineno}: ragged row ({len(rows[-1])} values, "
                f"expected {len(rows[0])})"
            )
    if not rows:
        raise NetworkFormatError("empty matrix file")
    return JacobianMatrix(H=np.array(rows))


def bundled_case(name: str) -> str:
    """Return the filesystem path of a case file shipped with the package."""
    from importlib.resources import files

    resource = files("stealthgame.data").joinpath(f"{name}.net")
    if not resource.is_file():
        raise FileNotFoundError(f"no bundled case named {name!r}")
    return str(resource)
