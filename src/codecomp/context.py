"""Context vectors for mention occurrences.

A provider has a ``dimension``, a ``spec()`` for the model file, and
``vectors(occurrences)``, which turns a batch of m mention occurrences into
one (m, dimension) matrix; an occurrence is ``(masked_tokens, masked_range,
key)``, as ``concepts.view_occurrences`` builds it: the document's masked
token surfaces (strings), the mention's [start, end) range within them, and
``key = (doc_id, view, occurrence_index)``. Two providers ship here: a
hashed window-of-words provider that reads the range and needs no external
resources, and a loader for vectors computed elsewhere (e.g. by a
contextual encoder) that looks the key up. Both are deterministic and safe
to share, and ``ProviderConfig(**provider.spec()).build()`` rebuilds
either. The precomputed table is read-only; the hashed provider fills one
surface -> bucket table per side as it meets surfaces, a cache of a pure
function that grows with the context vocabulary, as NB's table does.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from .concepts import view_occurrences


class ContextError(ValueError):
    pass


def _bucket(side: str, surface: str, dim: int) -> int:
    digest = hashlib.blake2b(f"{side}\x00{surface}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dim


class HashedWindowProvider:
    """Self-contained provider: hashed windows of the masked token surfaces
    around each mention."""

    def __init__(self, window: int = 3, dim: int = 64):
        if window < 1 or dim < 2:
            raise ContextError(f"bad provider config: window={window}, dim={dim}")
        self.window = window
        self.dim = dim
        # surface -> bucket, one table per side, filled as surfaces are met
        self._left, self._right = {}, {}

    @property
    def dimension(self) -> int:
        return self.dim

    def vectors(self, occurrences) -> np.ndarray:
        """Hashed bags of the token surfaces within ``window`` positions of
        each mention, one row per occurrence.

        Mention tokens themselves are excluded; left and right neighbors
        hash into distinct buckets. Each row's counts are L2-normalized; a
        mention with no neighbors in range yields the zero row. Each
        distinct (side, surface) is hashed once in the provider's life.
        """
        window, dim, left, right = self.window, self.dim, self._left, self._right
        cells = []  # row * dim + bucket, one per neighbour
        for row, (surfaces, (s, e), _) in enumerate(occurrences):
            if not 0 <= s < e <= len(surfaces):
                raise ContextError(f"mention range [{s}, {e}) outside token list")
            base = row * dim
            for surface in surfaces[max(0, s - window):s]:
                col = left.get(surface)
                if col is None:
                    col = left[surface] = _bucket("L", surface, dim)
                cells.append(base + col)
            for surface in surfaces[e:e + window]:
                col = right.get(surface)
                if col is None:
                    col = right[surface] = _bucket("R", surface, dim)
                cells.append(base + col)
        counts = np.zeros((len(occurrences), dim))
        np.add.at(counts.reshape(-1), np.array(cells, dtype=np.intp), 1.0)
        norms = np.linalg.norm(counts, axis=1, keepdims=True)
        np.divide(counts, norms, out=counts, where=norms > 0)
        return counts

    def spec(self) -> dict:
        return {"kind": "hashed", "window": self.window, "dim": self.dim}


class PrecomputedProvider:
    """Vectors computed outside this package, looked up by occurrence key,
    ``(doc_id, kcs_name, occurrence_index)``.

    File format: a header line ``dim N`` followed by one record per line,
    ``doc_id<TAB>kcs_name<TAB>occurrence_index<TAB>v1 v2 ... vN``.
    """

    def __init__(self, dim: int, table: dict, path=None):
        self.dim = dim
        self._table = table
        self.path = path

    @property
    def dimension(self) -> int:
        return self.dim

    def vectors(self, occurrences) -> np.ndarray:
        rows = []
        for _, _, key in occurrences:
            try:
                rows.append(self._table[key])
            except KeyError:
                raise ContextError(
                    f"no precomputed vector for doc={key[0]!r} kcs={key[1]!r} "
                    f"occurrence={key[2]}"
                ) from None
        return np.vstack(rows) if rows else np.empty((0, self.dim))

    def spec(self) -> dict:
        return {"kind": "precomputed", "path": str(self.path)}


def load_precomputed(path) -> PrecomputedProvider:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "dim" or not header[1].isdecimal():
            raise ContextError(f"{path}:1: first line must be 'dim N'")
        dim = int(header[1])
        if dim < 1:
            raise ContextError(f"{path}:1: dimension must be positive")
        table = {}
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise ContextError(
                    f"{path}:{line_no}: expected doc<TAB>kcs<TAB>occurrence<TAB>values"
                )
            doc_id, kcs_name, occ_s, values_s = parts
            try:
                key = (doc_id, kcs_name, int(occ_s))
                values = np.array([float(v) for v in values_s.split()], dtype=float)
            except ValueError as exc:
                raise ContextError(f"{path}:{line_no}: {exc}") from None
            if key in table:
                raise ContextError(f"{path}:{line_no}: repeated record {key}")
            if values.shape[0] != dim:
                raise ContextError(
                    f"{path}:{line_no}: {values.shape[0]} values under a dim {dim} header"
                )
            if not np.all(np.isfinite(values)):
                raise ContextError(f"{path}:{line_no}: non-finite vector entry")
            table[key] = values
    return PrecomputedProvider(dim=dim, table=table, path=path)


# each provider kind, and how a ProviderConfig of that kind builds it
PROVIDERS = {
    "hashed": lambda c: HashedWindowProvider(window=c.window, dim=c.dim),
    "precomputed": lambda c: load_precomputed(c.path),
}


@dataclass(frozen=True)
class ProviderConfig:
    """The ``[provider]`` section, keyed as each provider's ``spec()``;
    ``window`` and ``dim`` pass the hashed provider's check whatever the kind."""

    kind: str = "hashed"
    path: str = ""
    window: int = 3
    dim: int = 64

    def __post_init__(self):
        if self.kind not in PROVIDERS:
            raise ContextError(f"kind must be {' or '.join(PROVIDERS)}, got {self.kind!r}")
        if self.kind == "precomputed" and not self.path:
            raise ContextError("path is required for precomputed vectors")
        HashedWindowProvider(window=self.window, dim=self.dim)

    def build(self):
        return PROVIDERS[self.kind](self)


def context_of(provider, occurrences) -> np.ndarray:
    """The context vectors of many mention occurrences, one row each.

    An occurrence is ``(masked_tokens, masked_range, key)``, as
    ``concepts.view_occurrences`` builds it, with the masked token surfaces
    as strings. Mask tokens in the surrounding text are ordinary vocabulary
    items. Row i depends only on occurrence i; deterministic per (provider,
    occurrence).
    """
    matrix = np.asarray(provider.vectors(occurrences), dtype=float)
    want = (len(occurrences), provider.dimension)
    if matrix.shape != want:
        raise ContextError(f"provider returned shape {matrix.shape} for {want[0]} "
                           f"occurrences, declared dimension {want[1]}")
    if not np.all(np.isfinite(matrix)):
        raise ContextError("provider returned a non-finite vector")
    return matrix


@dataclass(frozen=True)
class GammaReport:
    """Sampled pairwise context distances within one concept view.

    Advisory only: reports how tightly the view's occurrences cluster and
    whether the 95th-percentile distance stays under the chosen threshold.
    """

    kcs_name: str
    gamma: float
    sampled_pairs: int
    max_distance: float
    quantile95_distance: float
    satisfied: bool

    def to_dict(self) -> dict:
        # an infinite threshold means "report only": keep the JSON strict
        return {**asdict(self), "gamma": self.gamma if math.isfinite(self.gamma) else None}


def _pair_distance(u, v, metric: str) -> float:
    if metric == "euclidean":
        return float(np.linalg.norm(u - v))
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)  # cosine
    if nu == 0 or nv == 0:
        return 1.0
    return float(1.0 - (u @ v) / (nu * nv))


# the ``metric`` names that validate_kcs_gamma takes
DISTANCES = ("euclidean", "cosine")


# the [gamma] section; validate_kcs_gamma checks its arguments by it
@dataclass(frozen=True)
class GammaConfig:
    threshold: float = float("inf")     # validate-kcs warns above it, if set
    sample_pairs: int = 200
    metric: str = "euclidean"

    def __post_init__(self):
        if self.sample_pairs < 1:
            raise ContextError(f"sample_pairs must be >= 1, got {self.sample_pairs}")
        if self.metric not in DISTANCES:
            raise ContextError(f"metric must be one of {', '.join(DISTANCES)}, "
                               f"got {self.metric!r}")


def validate_kcs_gamma(provider, processed_docs, kcs_name: str, gamma: float,
                       sample_pairs: int, seed: int,
                       metric: str = "euclidean") -> GammaReport:
    """Check how contextually similar a view's occurrences are.

    Samples mention pairs uniformly (deterministic per seed) and reports the
    max and 95th-percentile distance between their context vectors. The
    outcome is advisory; nothing downstream gates on it.
    """
    GammaConfig(gamma, sample_pairs, metric)
    occurrences, _ = view_occurrences(processed_docs, kcs_name)
    if len(occurrences) < 2:
        raise ContextError(
            f"view {kcs_name!r} has {len(occurrences)} mention(s); need at least 2"
        )
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(sample_pairs):
        i = int(rng.integers(len(occurrences)))
        j = int(rng.integers(len(occurrences) - 1))
        if j >= i:
            j += 1
        pairs.append((i, j))
    sampled = sorted({i for pair in pairs for i in pair})
    row = {i: r for r, i in enumerate(sampled)}
    matrix = context_of(provider, [occurrences[i] for i in sampled])
    distances = np.array([_pair_distance(matrix[row[i]], matrix[row[j]], metric)
                          for i, j in pairs])
    return GammaReport(
        kcs_name=kcs_name,
        gamma=gamma,
        sampled_pairs=sample_pairs,
        max_distance=float(distances.max()),
        quantile95_distance=float(np.percentile(distances, 95)),
        satisfied=bool(np.percentile(distances, 95) <= gamma),
    )
