import math
import pickle
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codecomp.concepts import process_document
from codecomp.context import (
    ContextError,
    GammaReport,
    HashedWindowProvider,
    ProviderConfig,
    _bucket,
    context_of,
    load_precomputed,
    validate_kcs_gamma,
)
from codecomp.corpus import Document
from codecomp.presets import task_preset


def _toks(*surfaces):
    return list(surfaces)


def _occurrence(tokens, position_range, occurrence=0, doc_id="1", kcs_name="d"):
    return tokens, position_range, (doc_id, kcs_name, occurrence)


def _reference_hashed_window(tokens, position_range, window, dim):
    """One occurrence's hashed window vector, built by the plain loop that
    ``HashedWindowProvider.vectors`` batches."""
    s, e = position_range
    vec = np.zeros(dim)
    for i in range(max(0, s - window), s):
        vec[_bucket("L", tokens[i], dim)] += 1.0
    for i in range(e, min(len(tokens), e + window)):
        vec[_bucket("R", tokens[i], dim)] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def _hashed(tokens, position_range, window, dim):
    provider = HashedWindowProvider(window=window, dim=dim)
    return context_of(provider, [_occurrence(tokens, position_range)])[0]


class TestHashedWindow:
    def test_deterministic(self):
        tokens = _toks("a", "x", "b")
        v1 = _hashed(tokens, (1, 2), window=3, dim=16)
        v2 = _hashed(tokens, (1, 2), window=3, dim=16)
        np.testing.assert_array_equal(v1, v2)

    def test_identical_windows_identical_vectors(self):
        a = _hashed(_toks("a", "x", "b"), (1, 2), 1, 16)
        b = _hashed(_toks("pre", "a", "x", "b", "post"), (2, 3), 1, 16)
        np.testing.assert_array_equal(a, b)

    def test_left_boundary_truncation(self):
        vec = _hashed(_toks("x", "right"), (0, 1), 3, 8)
        assert vec.shape == (8,)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_single_token_document_zero_vector(self):
        vec = _hashed(_toks("x"), (0, 1), 4, 8)
        np.testing.assert_array_equal(vec, np.zeros(8))

    def test_norm_zero_or_one_property(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            tokens = _toks(*(f"t{rng.integers(5)}" for _ in range(n)))
            s = int(rng.integers(n))
            vec = _hashed(tokens, (s, s + 1), window=int(rng.integers(1, 4)),
                          dim=int(rng.integers(2, 32)))
            norm = np.linalg.norm(vec)
            assert norm == pytest.approx(0.0) or norm == pytest.approx(1.0)

    def test_translation_invariance_outside_window(self):
        base = _toks("l2", "l1", "x", "r1", "r2")
        shifted = _toks("far1", "far2", "far3", "l2", "l1", "x", "r1", "r2")
        a = _hashed(base, (2, 3), 2, 16)
        b = _hashed(shifted, (5, 6), 2, 16)
        np.testing.assert_array_equal(a, b)

    def test_side_distinguishes_tokens(self):
        left = _hashed(_toks("w", "x"), (1, 2), 1, 64)
        right = _hashed(_toks("x", "w"), (0, 1), 1, 64)
        assert not np.array_equal(left, right)

    def test_validation(self):
        with pytest.raises(ContextError):
            HashedWindowProvider(window=0, dim=8)
        with pytest.raises(ContextError):
            HashedWindowProvider(window=1, dim=1)
        with pytest.raises(ContextError, match="outside token list"):
            _hashed(_toks("a"), (0, 2), window=1, dim=8)

    def test_out_of_range_mention_fails_the_batch(self):
        provider = HashedWindowProvider(window=2, dim=8)
        good = _occurrence(_toks("a", "b"), (0, 1))
        for bad in ((1, 1), (-1, 1), (2, 3)):
            with pytest.raises(ContextError, match=f"\\[{bad[0]}, {bad[1]}\\)"):
                context_of(provider, [good, _occurrence(_toks("a", "b"), bad)])


def _assert_matches_reference(occurrences, window, dim, provider=None):
    got = context_of(provider or HashedWindowProvider(window=window, dim=dim),
                     occurrences)
    want = np.array([_reference_hashed_window(t, r, window, dim)
                     for t, r, _ in occurrences]).reshape(len(occurrences), dim)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def _hashed_batches(draw):
    """Occurrences over a few short documents drawn from a tiny vocabulary,
    so surfaces repeat on both sides of a mention and across documents."""
    window = draw(st.integers(1, 10))
    dim = draw(st.integers(2, 128))
    occurrences = []
    for _ in range(draw(st.integers(0, 4))):
        tokens = _toks(*draw(st.lists(st.sampled_from("abcde"), min_size=1,
                                      max_size=8)))
        for occ in range(draw(st.integers(0, 4))):
            s = draw(st.integers(0, len(tokens) - 1))
            e = draw(st.integers(s + 1, len(tokens)))
            occurrences.append(_occurrence(tokens, (s, e), occ))
    return occurrences, window, dim


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_hashed_batches())
def test_batched_hashed_vectors_match_the_per_occurrence_loop(batch):
    _assert_matches_reference(*batch)


@pytest.mark.parametrize("window, dim, occurrences", [
    (2, 16, [_occurrence(_toks("x", "a", "b", "c"), (0, 1)),
             _occurrence(_toks("a", "b", "c", "x"), (3, 4))]),
    (9, 8, [_occurrence(_toks("a", "x", "b"), (1, 2))]),
    (3, 2, [_occurrence(_toks("a", "a", "x", "a", "a"), (2, 3))]),
    (3, 32, [_occurrence(_toks("x"), (0, 1)),
             _occurrence(_toks("a", "x", "b"), (0, 3)),
             _occurrence(_toks("a", "x"), (1, 2))]),
    (1, 128, [_occurrence(_toks("a", "x", "b"), (1, 2))]),
    (4, 5, []),
], ids=["both-ends", "wide-window", "repeated-surface", "zero-neighbours",
        "dim-128", "empty-batch"])
def test_hashed_vector_edge_cases(window, dim, occurrences):
    _assert_matches_reference(occurrences, window, dim)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_hashed_batches(), _hashed_batches())
def test_a_filled_bucket_table_changes_no_vector(first, second):
    """Batch B's rows from a provider whose tables batch A filled equal the
    per-occurrence loop, as a fresh provider's do."""
    (a, _, _), (b, window, dim) = first, second
    warmed = HashedWindowProvider(window=window, dim=dim)
    context_of(warmed, a)
    _assert_matches_reference(b, window, dim, warmed)


def test_a_pickled_provider_returns_the_same_rows():
    tokens = _toks("my", "mom", "took", "DRUG_TOK", "and", "felt", "sick")
    batch = [_occurrence(tokens, (s, s + 1), s) for s in range(len(tokens))]
    provider = HashedWindowProvider(window=2, dim=16)
    want = context_of(provider, batch)
    for copy in (pickle.loads(pickle.dumps(provider)),
                 pickle.loads(pickle.dumps(HashedWindowProvider(window=2, dim=16)))):
        assert context_of(copy, batch).tobytes() == want.tobytes()
        assert copy.spec() == provider.spec()


def _write_vectors(tmp_path, lines, header="dim 4"):
    path = tmp_path / "vectors.txt"
    path.write_text(header + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("kind", ["hashed", "precomputed"])
def test_provider_config_rebuilds_a_provider_from_its_spec(tmp_path, kind):
    tokens = _toks("my", "mom", "took", "DRUG_TOK", "and", "felt", "sick")
    batch = [_occurrence(tokens, (s, s + 1), s) for s in range(len(tokens))]
    provider = HashedWindowProvider(window=2, dim=4)
    if kind == "precomputed":
        rows = context_of(provider, batch) * 3.7 - 1.1
        provider = load_precomputed(_write_vectors(tmp_path, [
            "\t".join([*map(str, key), " ".join(map(repr, row.tolist()))])
            for (_, _, key), row in zip(batch, rows)]))
    rebuilt = ProviderConfig(**provider.spec()).build()
    assert type(rebuilt) is type(provider) and rebuilt.spec() == provider.spec()
    assert context_of(rebuilt, batch).tobytes() == context_of(provider, batch).tobytes()


class TestPrecomputed:
    def test_roundtrip_fixture(self, tmp_path):
        # hand-written fixture: the loader must return the stored vectors
        # verbatim for exactly the stored keys
        rows = {
            ("1", "disease", 0): [0.25, -1.5, 3.0, 0.125],
            ("1", "human", 1): [1.0, 2.0, 3.0, 4.0],
            ("2", "disease", 0): [0.0, 0.0, 1.0, 0.0],
        }
        lines = [
            f"{d}\t{k}\t{o}\t" + " ".join(str(v) for v in vec)
            for (d, k, o), vec in rows.items()
        ]
        provider = load_precomputed(_write_vectors(tmp_path, lines))
        assert provider.dimension == 4
        occurrences = [_occurrence(_toks("x"), (0, 1), o, doc_id=d, kcs_name=k)
                       for d, k, o in rows]
        got = context_of(provider, occurrences)
        np.testing.assert_array_equal(got, np.array(list(rows.values())))
        assert context_of(provider, []).shape == (0, 4)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = _write_vectors(tmp_path, ["1\td\t0\t1 2 3 4 5"])
        with pytest.raises(ContextError, match="dim 4"):
            load_precomputed(path)

    def test_missing_key_names_key(self, tmp_path):
        provider = load_precomputed(_write_vectors(tmp_path, ["1\td\t0\t1 2 3 4"]))
        with pytest.raises(ContextError, match="doc='9'.*occurrence=3"):
            context_of(provider, [_occurrence(_toks("x"), (0, 1), 0, doc_id="1"),
                                  _occurrence(_toks("x"), (0, 1), 3, doc_id="9")])

    def test_occurrence_required(self, tmp_path):
        provider = load_precomputed(_write_vectors(tmp_path, ["1\td\t0\t1 2 3 4"]))
        with pytest.raises(ContextError, match="occurrence=None"):
            context_of(provider, [_occurrence(_toks("x"), (0, 1), None)])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dimension 4\n", encoding="utf-8")
        with pytest.raises(ContextError, match="dim N"):
            load_precomputed(path)

    def test_non_finite_rejected(self, tmp_path):
        path = _write_vectors(tmp_path, ["1\td\t0\t1 2 nan 4"])
        with pytest.raises(ContextError, match="non-finite"):
            load_precomputed(path)

    @pytest.mark.parametrize("header, lines, where, message", [
        ("dim 4", ["1\td\t0\t1 2 3 4", "1\td\tfirst\t1 2 3 4"], 3, "int"),
        ("dim 4", ["1\td\t0\t1 2 three 4"], 2, "float"),
        ("dim two", ["1\td\t0\t1 2 3 4"], 1, "dim N"),
        ("dim 4", ["1\td\t0\t1 2 3 4", "2\td\t0\t0 0 0 0", "1\td\t0\t4 3 2 1"], 4,
         "repeated record \\('1', 'd', 0\\)"),
    ], ids=["occurrence", "value", "dim", "repeated-key"])
    def test_bad_record_names_path_and_line(self, tmp_path, header, lines, where,
                                            message):
        path = _write_vectors(tmp_path, lines, header=header)
        with pytest.raises(ContextError, match=f"vectors.txt:{where}: .*{message}"):
            load_precomputed(path)


class TestGamma:
    def _processed(self, texts, lexicons):
        preset = task_preset("phm-cancer")
        return [
            process_document(Document(id=str(i), text=t), preset, lexicons)
            for i, t in enumerate(texts)
        ], preset

    def test_identical_contexts_distance_zero(self, lexicons):
        pdocs, _ = self._processed(
            ["feeling bad cancer today ok", "feeling bad cancer today ok"],
            lexicons)
        provider = HashedWindowProvider(window=2, dim=16)
        report = validate_kcs_gamma(provider, pdocs, "disease", gamma=0.0,
                                    sample_pairs=50, seed=1)
        assert report.max_distance == 0.0
        assert report.satisfied

    def test_gamma_zero_with_distinct_contexts(self, lexicons):
        pdocs, _ = self._processed(
            ["feeling bad cancer today", "other words cancer appear here"],
            lexicons)
        provider = HashedWindowProvider(window=2, dim=16)
        report = validate_kcs_gamma(provider, pdocs, "disease", gamma=0.0,
                                    sample_pairs=50, seed=1)
        assert report.max_distance > 0.0
        assert not report.satisfied

    def test_reproducible_per_seed(self, lexicons):
        texts = [f"word{i} stuff cancer more w{i}" for i in range(6)]
        pdocs, _ = self._processed(texts, lexicons)
        provider = HashedWindowProvider(window=2, dim=16)
        a = validate_kcs_gamma(provider, pdocs, "disease", 1.0, 100, seed=9)
        b = validate_kcs_gamma(provider, pdocs, "disease", 1.0, 100, seed=9)
        assert a == b

    def test_too_few_mentions(self, lexicons):
        pdocs, _ = self._processed(["cancer appears once here"], lexicons)
        provider = HashedWindowProvider(window=2, dim=16)
        with pytest.raises(ContextError, match="at least 2"):
            validate_kcs_gamma(provider, pdocs, "disease", 1.0, 10, seed=0)

    def test_euclidean_vs_cosine(self, lexicons):
        pdocs, _ = self._processed(
            ["a b cancer c d", "e f cancer g h", "i j cancer k l"], lexicons)
        provider = HashedWindowProvider(window=2, dim=32)
        eu = validate_kcs_gamma(provider, pdocs, "disease", 1.0, 40, seed=2)
        co = validate_kcs_gamma(provider, pdocs, "disease", 1.0, 40, seed=2,
                                metric="cosine")
        assert eu.max_distance != co.max_distance

    def test_unknown_metric_fails_before_vectorizing(self, lexicons):
        pdocs, _ = self._processed(["a b cancer c d", "e f cancer g h"], lexicons)
        calls = []

        class Counting(HashedWindowProvider):
            def vectors(self, occurrences):
                calls.append(len(occurrences))
                return super().vectors(occurrences)

        provider = Counting(window=2, dim=16)
        with pytest.raises(ContextError, match="metric must be one of euclidean, "
                                               "cosine, got 'manhattan'"):
            validate_kcs_gamma(provider, pdocs, "disease", 1.0, 10, seed=0,
                               metric="manhattan")
        assert calls == []
        validate_kcs_gamma(provider, pdocs, "disease", 1.0, 10, seed=0)
        assert calls == [2]

    def test_report_serializes(self):
        report = GammaReport(kcs_name="d", gamma=1.0, sampled_pairs=5,
                             max_distance=0.5, quantile95_distance=0.4,
                             satisfied=True)
        assert report.to_dict()["satisfied"] is True

    def test_report_writes_every_field_and_null_for_an_infinite_gamma(self):
        @dataclass(frozen=True)
        class Noted(GammaReport):
            note: str = "kept"

        finite = GammaReport(kcs_name="d", gamma=1.0, sampled_pairs=5,
                             max_distance=0.5, quantile95_distance=0.4,
                             satisfied=True)
        assert finite.to_dict() == {"kcs_name": "d", "gamma": 1.0, "sampled_pairs": 5,
                                    "max_distance": 0.5, "quantile95_distance": 0.4,
                                    "satisfied": True}
        assert replace(finite, gamma=math.inf).to_dict() == {**finite.to_dict(),
                                                             "gamma": None}
        assert Noted(**vars(finite)).to_dict() == {**finite.to_dict(), "note": "kept"}


class _Broken:
    """A provider returning whatever matrix it was built with."""

    dimension = 4

    def __init__(self, matrix):
        self.matrix = matrix

    def vectors(self, occurrences):
        return self.matrix


def test_context_of_validates_shape_and_finiteness():
    occurrences = [_occurrence(_toks("x"), (0, 1), o) for o in range(2)]
    for matrix, message in [
        (np.ones((2, 2)), "shape \\(2, 2\\) for 2 occurrences, declared dimension 4"),
        (np.ones((1, 4)), "shape \\(1, 4\\) for 2 occurrences"),
        (np.ones(4), "shape \\(4,\\)"),
        (np.array([[1.0, 2.0, np.nan, 4.0], [0.0] * 4]), "non-finite"),
        (np.array([[0.0] * 4, [np.inf, 0.0, 0.0, 0.0]]), "non-finite"),
    ]:
        with pytest.raises(ContextError, match=message):
            context_of(_Broken(matrix), occurrences)
