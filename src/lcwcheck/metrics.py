"""Metric specifications: a chart, coordinate names and component expressions.

The JSON document format is the sole external input format of the toolkit:

    {
      "dimension": 4,
      "coordinates": ["x1", "x2", "x3", "x4"],
      "g": [["1", "0", ...], ...],          # n x n expression strings
      "domain": {"x1": [-1.0, 1.0], ...}    # optional chart box
    }

Entries below the diagonal may be ``null``; they are filled by symmetry.
If both triangles are given explicitly, the two entries must parse to
structurally identical trees.  A parsed metric keeps each upper entry's
text, packed by pair, and writes that text into both triangles; it parses
that text once, straight into its jet tape.
The chart box defaults to [-1, 1] per coordinate and every sampling
operation in the toolkit respects it.
Every metric the toolkit generates is written by :func:`coordinate_metric`,
each upper-triangle entry once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import exprs
from .exprs import Node, ParseError
from .jets import Jet3, JetTape, SymIndex, chart_points

MIN_DIMENSION = 3
MAX_DIMENSION = 8


class MetricError(ValueError):
    """Schema violation, asymmetry or dimension problem in a metric document."""


@dataclass(frozen=True, eq=False)
class MetricSpec:
    """A symmetric matrix of component expressions on a coordinate box.

    Packed, one entry per pair i <= j in ``SymIndex(dimension).pairs``
    order: ``sources[k]`` is the text entry k was given.  ``tape`` is that
    text compiled at load by :func:`make_metric`, in one parse with no
    tree; ``entries``, the parse trees, are parsed on first read, for the
    walk that names a failing entry and for ``==``, which compares the
    trees, not the text.  Nothing changes it after it is made, so it is
    safe to share between concurrent evaluators.
    """

    dimension: int
    coordinates: tuple[str, ...]
    sources: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    tape: JetTape = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, MetricSpec):
            return NotImplemented
        return ((self.dimension, self.coordinates, self.domain)
                == (other.dimension, other.coordinates, other.domain)
                and self.entries == other.entries)

    @cached_property
    def entries(self) -> tuple[Node, ...]:
        """Each entry's parse tree, parsed on first read."""
        return tuple(exprs.parse_expr(source, self.coordinates) for source in self.sources)

    def evaluate(self, points) -> np.ndarray:
        """g at a chart point, or at each row of a (B, n) batch: the tape's
        rows in no variables, whose value slots are computed as in the
        jets' rows (no value slot reads a derivative slot), so
        ``metric_jets(self, points).g`` bit for bit (``^`` is repeated
        squaring, ``a/b`` is ``a*(1/b)`` and ``c*x1*x2`` is ``c*(x1*x2)``,
        as in the jets).  Points are checked as
        :func:`~lcwcheck.jets.metric_jets` checks them."""
        batch = chart_points(self, points)
        rows = self.component_rows({name: Jet3.constant(x, 0)
                                    for name, x in zip(self.coordinates, batch.T)})
        return rows[:, 0, SymIndex(self.dimension).idx2].reshape(*np.shape(points), self.dimension)

    def component_rows(self, env: dict) -> np.ndarray:
        """The entries' rows at the coordinate jets ``env`` (jets over the
        same points, in the coordinates or in none): the tape's (B, width,
        npairs) array, an entry without coordinates as constant rows.  When
        the tape fails, the walk runs on the trees only to raise the
        failing entry's ``EvalError``, with its offset; so does a constant
        subterm that failed to fold.  The tape reassociates products, so
        it can fail where the walk's floats do not (``1/(x1*x2*x3-x3*x2*x1)``
        divides by an exact 0 in the tape alone); then the tape's error is
        raised as a ``ValueError``, as the walk's domain errors are."""
        try:
            return self.tape.run([env[name] for name in self.coordinates])
        except (ArithmeticError, ValueError) as exc:
            for entry in self.entries:
                exprs.eval_expr(entry, env)
            raise ValueError(f"domain error: {exc}") from exc

    def to_document(self) -> dict:
        """The metric document, each entry's given text in both triangles."""
        return {
            "dimension": self.dimension,
            "coordinates": list(self.coordinates),
            "g": [[self.sources[k] for k in row] for row in SymIndex(self.dimension).idx2],
            "domain": {name: [lo, hi]
                       for name, (lo, hi) in zip(self.coordinates, self.domain)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2)


def _check_identifier(name: str) -> None:
    if not name or not (name[0].isalpha() or name[0] == "_"):
        raise MetricError(f"invalid coordinate name {name!r}")
    if not all(c.isalnum() or c == "_" for c in name):
        raise MetricError(f"invalid coordinate name {name!r}")
    if name in exprs.FUNCTIONS:
        raise MetricError(f"coordinate name {name!r} shadows a builtin function")


def make_metric(dimension: int, coordinates, g_sources, domain=None) -> MetricSpec:
    """Validate and assemble a MetricSpec from expression strings.

    ``coordinates`` is a list or tuple of names and ``g_sources`` an n x n
    list or tuple of rows of strings, with ``None`` allowed strictly below
    the diagonal.
    """
    n = dimension
    if not isinstance(n, int) or not MIN_DIMENSION <= n <= MAX_DIMENSION:
        raise MetricError(
            f"dimension must be an integer in [{MIN_DIMENSION}, {MAX_DIMENSION}], got {dimension!r}")
    if not isinstance(coordinates, (list, tuple)) or not all(
            isinstance(name, str) for name in coordinates):
        raise MetricError("'coordinates' must be a list of coordinate names")
    coords = tuple(coordinates)
    if len(coords) != n:
        raise MetricError(f"expected {n} coordinate names, got {len(coords)}")
    if len(set(coords)) != n:
        raise MetricError("coordinate names must be distinct")
    for name in coords:
        _check_identifier(name)

    rows = g_sources
    if (not isinstance(rows, (list, tuple)) or len(rows) != n
            or any(not isinstance(row, (list, tuple)) or len(row) != n for row in rows)):
        raise MetricError(f"'g' must be an {n}x{n} array of expressions")

    given = {}  # (i, j) -> text, in document order
    for i in range(n):
        for j in range(n):
            src = rows[i][j]
            if src is None and j < i:
                continue
            if not isinstance(src, str):
                _trees(given, coords)  # an earlier entry's parse error comes first
                if src is None:
                    raise MetricError(f"g[{i}][{j}]: only lower-triangle entries may be omitted")
                raise MetricError(f"g[{i}][{j}] must be an expression string")
            given[i, j] = src

    pairs = SymIndex(n).pairs
    sources = tuple(given[p] for p in pairs)
    try:
        tape = JetTape(coords, sources)
    except ParseError:
        _trees(given, coords)  # names the entry, the first in document order
        raise

    # an explicit lower entry must parse to its upper entry's tree, as the same text does
    lower = _trees({(i, j): src for (i, j), src in given.items()
                    if i > j and src != given[j, i]}, coords)
    for i, j in pairs:
        if (j, i) in lower and lower[j, i] != exprs.parse_expr(given[i, j], coords):
            raise MetricError(
                f"asymmetric entries: g[{i}][{j}] and g[{j}][{i}] are structurally different")

    box = [(-1.0, 1.0)] * n
    if domain is not None:
        if not isinstance(domain, dict):
            raise MetricError("'domain' must be an object mapping coordinates to [lo, hi]")
        for name, interval in domain.items():
            if name not in coords:
                raise MetricError(f"domain references unknown coordinate {name!r}")
            if (not isinstance(interval, (list, tuple)) or len(interval) != 2
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                               for v in interval)):
                raise MetricError(f"domain for {name!r} must be a [lo, hi] pair")
            try:
                lo, hi = map(float, interval)
            except OverflowError:  # an integer past the float range
                raise MetricError(f"domain for {name!r} must be finite") from None
            if not lo < hi:
                raise MetricError(f"domain for {name!r} must satisfy lo < hi")
            if not np.isfinite(hi - lo):
                raise MetricError(f"domain for {name!r} must be finite")
            box[coords.index(name)] = (lo, hi)

    return MetricSpec(n, coords, sources, tuple(box), tape)


def _trees(given: dict, coords) -> dict:
    """The parse tree of each given (i, j) -> text, parsed in the given
    order; the first that fails raises its ``MetricError``."""
    trees = {}
    for (i, j), src in given.items():
        try:
            trees[i, j] = exprs.parse_expr(src, coords)
        except ParseError as exc:
            raise MetricError(f"g[{i}][{j}]: {exc}") from exc
    return trees


def parse_metric(document: str) -> MetricSpec:
    """Parse and validate a metric JSON document."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise MetricError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MetricError("document must be a JSON object")
    for key in ("dimension", "coordinates", "g"):
        if key not in doc:
            raise MetricError(f"missing required key {key!r}")
    unknown = set(doc) - {"dimension", "coordinates", "g", "domain"}
    if unknown:
        raise MetricError(f"unknown keys: {sorted(unknown)}")
    return make_metric(doc["dimension"], doc["coordinates"], doc["g"], doc.get("domain"))


def load_metric(path) -> MetricSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_metric(fh.read())


# --- generated metrics: the one writer, then the stock charts -------------


def coordinate_metric(n: int, entry, domain=None) -> MetricSpec:
    """The metric on coordinates ``x1 .. xn`` whose entry (i, j) is the text
    ``entry(i, j)``, called once per pair i <= j in row order; the lower
    triangle is left to symmetry, so each entry is written and parsed once."""
    g = [[None if j < i else entry(i, j) for j in range(n)] for i in range(n)]
    return make_metric(n, [f"x{i + 1}" for i in range(n)], g, domain)


def euclidean_metric(n: int, domain=None) -> MetricSpec:
    return coordinate_metric(n, lambda i, j: "1" if i == j else "0", domain)


def sphere_stereographic_metric(n: int) -> MetricSpec:
    """Round unit sphere in stereographic coordinates: g = 4/(1+|x|^2)^2 delta."""
    conf = f"4/(1+{'+'.join(f'x{i + 1}^2' for i in range(n))})^2"
    return coordinate_metric(n, lambda i, j: conf if i == j else "0")


def conformally_flat_metric(n: int, log_factor: str) -> MetricSpec:
    """g = exp(2 f) delta for a closed-form f given as an expression string."""
    conf = f"exp(2*({log_factor}))"
    return coordinate_metric(n, lambda i, j: conf if i == j else "0")
