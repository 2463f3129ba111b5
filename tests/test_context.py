import numpy as np
import pytest

from codecomp.concepts import Mention, Token, process_document
from codecomp.context import (
    ContextError,
    GammaReport,
    HashedWindowProvider,
    context_of,
    hashed_window_context,
    load_precomputed,
    validate_kcs_gamma,
)
from codecomp.corpus import Document
from codecomp.presets import task_preset


def _toks(*surfaces):
    return [Token(s, i, i + 1) for i, s in enumerate(surfaces)]


class TestHashedWindow:
    def test_deterministic(self):
        tokens = _toks("a", "x", "b")
        v1 = hashed_window_context(tokens, (1, 2), window=3, dim=16)
        v2 = hashed_window_context(tokens, (1, 2), window=3, dim=16)
        np.testing.assert_array_equal(v1, v2)

    def test_identical_windows_identical_vectors(self):
        a = hashed_window_context(_toks("a", "x", "b"), (1, 2), 1, 16)
        b = hashed_window_context(_toks("pre", "a", "x", "b", "post"), (2, 3), 1, 16)
        np.testing.assert_array_equal(a, b)

    def test_left_boundary_truncation(self):
        vec = hashed_window_context(_toks("x", "right"), (0, 1), 3, 8)
        assert vec.shape == (8,)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_single_token_document_zero_vector(self):
        vec = hashed_window_context(_toks("x"), (0, 1), 4, 8)
        np.testing.assert_array_equal(vec, np.zeros(8))

    def test_norm_zero_or_one_property(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            tokens = _toks(*(f"t{rng.integers(5)}" for _ in range(n)))
            s = int(rng.integers(n))
            vec = hashed_window_context(tokens, (s, s + 1),
                                        window=int(rng.integers(1, 4)),
                                        dim=int(rng.integers(2, 32)))
            norm = np.linalg.norm(vec)
            assert norm == pytest.approx(0.0) or norm == pytest.approx(1.0)

    def test_translation_invariance_outside_window(self):
        base = _toks("l2", "l1", "x", "r1", "r2")
        shifted = _toks("far1", "far2", "far3", "l2", "l1", "x", "r1", "r2")
        a = hashed_window_context(base, (2, 3), 2, 16)
        b = hashed_window_context(shifted, (5, 6), 2, 16)
        np.testing.assert_array_equal(a, b)

    def test_side_distinguishes_tokens(self):
        left = hashed_window_context(_toks("w", "x"), (1, 2), 1, 64)
        right = hashed_window_context(_toks("x", "w"), (0, 1), 1, 64)
        assert not np.array_equal(left, right)

    def test_validation(self):
        with pytest.raises(ContextError):
            hashed_window_context(_toks("a"), (0, 1), window=0, dim=8)
        with pytest.raises(ContextError):
            hashed_window_context(_toks("a"), (0, 1), window=1, dim=1)
        with pytest.raises(ContextError):
            hashed_window_context(_toks("a"), (0, 2), window=1, dim=8)


def _write_vectors(tmp_path, lines, header="dim 4"):
    path = tmp_path / "vectors.txt"
    path.write_text(header + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return path


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
        assert len(provider) == 3
        for (d, k, o), vec in rows.items():
            mention = Mention(doc_id=d, kcs_name=k, token_range=(0, 1), surface="x")
            got = context_of(provider, _toks("x"), mention, occurrence=o)
            np.testing.assert_array_equal(got, np.asarray(vec))

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = _write_vectors(tmp_path, ["1\td\t0\t1 2 3 4 5"])
        with pytest.raises(ContextError, match="dim 4"):
            load_precomputed(path)

    def test_missing_key_names_key(self, tmp_path):
        provider = load_precomputed(_write_vectors(tmp_path, ["1\td\t0\t1 2 3 4"]))
        mention = Mention(doc_id="9", kcs_name="d", token_range=(0, 1), surface="x")
        with pytest.raises(ContextError, match="doc='9'.*occurrence=3"):
            context_of(provider, _toks("x"), mention, occurrence=3)

    def test_occurrence_required(self, tmp_path):
        provider = load_precomputed(_write_vectors(tmp_path, ["1\td\t0\t1 2 3 4"]))
        mention = Mention(doc_id="1", kcs_name="d", token_range=(0, 1), surface="x")
        with pytest.raises(ContextError, match="occurrence"):
            context_of(provider, _toks("x"), mention)

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

    def test_report_serializes(self):
        report = GammaReport(kcs_name="d", gamma=1.0, sampled_pairs=5,
                             max_distance=0.5, quantile95_distance=0.4,
                             satisfied=True)
        assert report.to_dict()["satisfied"] is True


def test_context_of_validates_shape_and_finiteness():
    class Broken:
        dimension = 4

        def vector(self, tokens, mention, occurrence=None):
            return np.array([1.0, 2.0])

    mention = Mention(doc_id="1", kcs_name="d", token_range=(0, 1), surface="x")
    with pytest.raises(ContextError, match="shape"):
        context_of(Broken(), _toks("x"), mention)
