"""Context vectors for mention occurrences.

A provider turns one mention occurrence into a fixed-dimension real vector.
Two providers ship here: a hashed window-of-words provider that needs no
external resources, and a loader for vectors computed elsewhere (e.g. by a
contextual encoder) keyed by (doc_id, view, occurrence). Both are read-only
after construction and safe to query concurrently.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .concepts import Mention


class ContextError(ValueError):
    pass


def _bucket(side: str, surface: str, dim: int) -> int:
    digest = hashlib.blake2b(f"{side}\x00{surface}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dim


def hashed_window_context(tokens, position_range, window: int, dim: int) -> np.ndarray:
    """Hashed bag of the tokens within `window` positions of a mention.

    Mention tokens themselves are excluded; left and right neighbors hash
    into distinct buckets. Counts are L2-normalized; a mention with no
    neighbors in range yields the zero vector.
    """
    if window < 1:
        raise ContextError(f"window must be >= 1, got {window}")
    if dim < 2:
        raise ContextError(f"dim must be >= 2, got {dim}")
    s, e = position_range
    if not (0 <= s < e <= len(tokens)):
        raise ContextError(f"mention range [{s}, {e}) outside token list")
    vec = np.zeros(dim)
    for i in range(max(0, s - window), s):
        vec[_bucket("L", tokens[i].surface, dim)] += 1.0
    for i in range(e, min(len(tokens), e + window)):
        vec[_bucket("R", tokens[i].surface, dim)] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


class HashedWindowProvider:
    """Self-contained provider: hashed token windows around each mention."""

    def __init__(self, window: int = 3, dim: int = 64):
        if window < 1 or dim < 2:
            raise ContextError(f"bad provider config: window={window}, dim={dim}")
        self.window = window
        self.dim = dim

    @property
    def dimension(self) -> int:
        return self.dim

    def vector(self, masked_tokens, mention: Mention, occurrence: int | None = None):
        return hashed_window_context(masked_tokens, mention.token_range,
                                     self.window, self.dim)

    def spec(self) -> dict:
        return {"kind": "hashed", "window": self.window, "dim": self.dim}


class PrecomputedProvider:
    """Vectors computed outside this package, looked up by occurrence key.

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

    def vector(self, masked_tokens, mention: Mention, occurrence: int | None = None):
        if occurrence is None:
            raise ContextError("precomputed lookup needs the occurrence index")
        key = (mention.doc_id, mention.kcs_name, occurrence)
        try:
            return self._table[key]
        except KeyError:
            raise ContextError(
                f"no precomputed vector for doc={key[0]!r} kcs={key[1]!r} "
                f"occurrence={key[2]}"
            )

    def __len__(self) -> int:
        return len(self._table)

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


def context_of(provider, masked_tokens, mention: Mention,
               occurrence: int | None = None) -> np.ndarray:
    """The context vector of one mention occurrence.

    Mask tokens in the surrounding text are ordinary vocabulary items.
    Deterministic per (provider, tokens, mention).
    """
    vec = np.asarray(provider.vector(masked_tokens, mention, occurrence), dtype=float)
    if vec.shape != (provider.dimension,):
        raise ContextError(
            f"provider returned shape {vec.shape}, declared dimension {provider.dimension}"
        )
    if not np.all(np.isfinite(vec)):
        raise ContextError("provider returned a non-finite vector")
    return vec


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
        return {
            "kcs_name": self.kcs_name,
            # an infinite threshold means "report only": keep the JSON strict
            "gamma": self.gamma if math.isfinite(self.gamma) else None,
            "sampled_pairs": self.sampled_pairs,
            "max_distance": self.max_distance,
            "quantile95_distance": self.quantile95_distance,
            "satisfied": self.satisfied,
        }


def _pair_distance(u, v, metric: str) -> float:
    if metric == "euclidean":
        return float(np.linalg.norm(u - v))
    if metric == "cosine":
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0 or nv == 0:
            return 1.0
        return float(1.0 - (u @ v) / (nu * nv))
    raise ContextError(f"unknown distance metric {metric!r}")


def validate_kcs_gamma(provider, processed_docs, kcs_name: str, gamma: float,
                       sample_pairs: int, seed: int,
                       metric: str = "euclidean") -> GammaReport:
    """Check how contextually similar a view's occurrences are.

    Samples mention pairs uniformly (deterministic per seed) and reports the
    max and 95th-percentile distance between their context vectors. The
    outcome is advisory; nothing downstream gates on it.
    """
    if sample_pairs < 1:
        raise ContextError(f"sample_pairs must be >= 1, got {sample_pairs}")
    occurrences = [
        (pdoc.masked_tokens, mention, occ)
        for pdoc in processed_docs
        for occ, (mention, _) in enumerate(pdoc.masked_instances(kcs_name))
    ]
    if len(occurrences) < 2:
        raise ContextError(
            f"view {kcs_name!r} has {len(occurrences)} mention(s); need at least 2"
        )
    vectors = [None] * len(occurrences)

    def vec(i):
        if vectors[i] is None:
            toks, mention, occ = occurrences[i]
            vectors[i] = context_of(provider, toks, mention, occ)
        return vectors[i]

    rng = np.random.default_rng(seed)
    distances = np.empty(sample_pairs)
    for k in range(sample_pairs):
        i = int(rng.integers(len(occurrences)))
        j = int(rng.integers(len(occurrences) - 1))
        if j >= i:
            j += 1
        distances[k] = _pair_distance(vec(i), vec(j), metric)
    return GammaReport(
        kcs_name=kcs_name,
        gamma=gamma,
        sampled_pairs=sample_pairs,
        max_distance=float(distances.max()),
        quantile95_distance=float(np.percentile(distances, 95)),
        satisfied=bool(np.percentile(distances, 95) <= gamma),
    )
