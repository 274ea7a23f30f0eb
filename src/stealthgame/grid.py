"""Bus/branch network descriptions and the DC measurement matrix.

Network file format (UTF-8, line oriented, ``#`` starts a comment):

    bus <n_bus>
    slack <index>                  # optional, defaults to bus 1
    branch <from> <to> <value>     # value = susceptance, or x:<reactance>

Bus indices are 1-based, as in common case-data conventions.  The
measurement set is one active-power flow per branch (from -> to
direction only) plus one power injection per bus, so ``m = n_branch +
n_bus``.  The slack bus angle is the removed state column, giving
``n = n_bus - 1`` states.
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
        if self.n_bus < 1:
            raise NetworkFormatError(f"n_bus must be positive, got {self.n_bus}")
        if not 1 <= self.slack <= self.n_bus:
            raise NetworkFormatError(
                f"slack bus {self.slack} outside [1, {self.n_bus}]"
            )
        for k, br in enumerate(self.branches):
            if not (1 <= br.from_bus <= self.n_bus and 1 <= br.to_bus <= self.n_bus):
                raise NetworkFormatError(
                    f"branch {k + 1} ({br.from_bus}-{br.to_bus}): dangling bus index"
                )
            if br.from_bus == br.to_bus:
                raise NetworkFormatError(
                    f"branch {k + 1}: from_bus equals to_bus ({br.from_bus})"
                )
            if not (br.susceptance > 0 and math.isfinite(br.susceptance)):
                raise NetworkFormatError(
                    f"branch {k + 1}: susceptance must be finite and positive, "
                    f"got {br.susceptance}"
                )
        if not _connected(self.n_bus, self.branches):
            raise NetworkFormatError("branch graph is not connected")


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
    """Dense measurement matrix with one label per measurement row."""

    H: np.ndarray
    row_labels: tuple[str, ...]

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        if H.ndim != 2:
            raise ValueError(f"H must be 2-D, got shape {H.shape}")
        if len(self.row_labels) != H.shape[0]:
            raise ValueError(
                f"{len(self.row_labels)} row labels for {H.shape[0]} rows"
            )
        object.__setattr__(self, "H", H)

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def n(self) -> int:
        return self.H.shape[1]


def parse_network(text: str) -> BusNetwork:
    """Parse a network file into a validated :class:`BusNetwork`.

    Branch order is preserved from the file.  Errors report the
    offending 1-based line number.
    """
    n_bus = None
    slack = None
    branches: list[Branch] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive = tokens[0].lower()
        if directive == "bus":
            if n_bus is not None:
                raise NetworkFormatError(f"line {lineno}: duplicate bus declaration")
            n_bus = _parse_int(tokens, 1, lineno, expected=2)
        elif directive == "slack":
            if slack is not None:
                raise NetworkFormatError(
                    f"line {lineno}: duplicate slack declaration"
                )
            slack = _parse_int(tokens, 1, lineno, expected=2)
        elif directive == "branch":
            if len(tokens) != 4:
                raise NetworkFormatError(
                    f"line {lineno}: branch needs <from> <to> <value>"
                )
            f = _parse_int(tokens, 1, lineno)
            t = _parse_int(tokens, 2, lineno)
            b = _parse_branch_value(tokens[3], lineno)
            branches.append(Branch(f, t, b))
        else:
            raise NetworkFormatError(
                f"line {lineno}: unknown directive {directive!r}"
            )
    if n_bus is None:
        raise NetworkFormatError("missing bus declaration")
    if slack is None:
        slack = 1
    return BusNetwork(n_bus=n_bus, slack=slack, branches=tuple(branches))


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
        value = 1.0 / value
    if not math.isfinite(value):
        raise NetworkFormatError(
            f"line {lineno}: branch value {token!r} gives a non-finite susceptance"
        )
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
    n = net.n_bus - 1
    col_of_bus = {}
    col = 0
    for bus in range(1, net.n_bus + 1):
        if bus != net.slack:
            col_of_bus[bus] = col
            col += 1

    n_branch = len(net.branches)
    m = n_branch + net.n_bus
    H = np.zeros((m, n))
    labels = []
    for k, br in enumerate(net.branches):
        if br.from_bus in col_of_bus:
            H[k, col_of_bus[br.from_bus]] += br.susceptance
        if br.to_bus in col_of_bus:
            H[k, col_of_bus[br.to_bus]] -= br.susceptance
        labels.append(f"flow({br.from_bus},{br.to_bus})")
    for bus in range(1, net.n_bus + 1):
        row = n_branch + bus - 1
        for k, br in enumerate(net.branches):
            if br.from_bus == bus:
                H[row] += H[k]
            elif br.to_bus == bus:
                H[row] -= H[k]
        labels.append(f"injection({bus})")
    return JacobianMatrix(H=H, row_labels=tuple(labels))


def load_matrix(text: str) -> JacobianMatrix:
    """Load a dense numeric matrix (whitespace- or comma-separated)."""
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.replace(",", " ").split()
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
    H = np.array(rows)
    labels = tuple(f"m{i + 1}" for i in range(H.shape[0]))
    return JacobianMatrix(H=H, row_labels=labels)


def bundled_case(name: str) -> str:
    """Return the filesystem path of a case file shipped with the package."""
    from importlib.resources import files

    resource = files("stealthgame.data").joinpath(f"{name}.net")
    if not resource.is_file():
        raise FileNotFoundError(f"no bundled case named {name!r}")
    return str(resource)
