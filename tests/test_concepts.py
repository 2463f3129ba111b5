import concurrent.futures
import json
import logging
import pickle
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codecomp import cli, concepts
from codecomp.baselines import document_features
from codecomp.context import HashedWindowProvider, _bucket
from codecomp.cotrain import build_examples
from codecomp.learners import ngram_counts
from codecomp.concepts import (
    ConceptError,
    KeyConceptSet,
    Mention,
    NEGATIVE,
    POSITIVE,
    Token,
    UNLABELED,
    _masked_tokens_with_map,
    extract_human_mentions,
    extract_keyword_mentions,
    load_wordlist,
    process_document,
    sentence_spans,
    synthesize_human_mention,
    synthesize_document,
    token_surfaces,
    tokenize,
)
from codecomp.corpus import Document
from codecomp.presets import DRUG_TOK, HUM_TOK, load_preset_file, task_preset
from codecomp.synthetic import two_view_preset


class TestTokenize:
    def test_example_tweet(self):
        tokens = tokenize("I Just went to my Oncology appointment")
        assert [t.surface for t in tokens] == [
            "i", "just", "went", "to", "my", "oncology", "appointment"]

    def test_handles_and_punctuation(self):
        tokens = tokenize("@john is sick!!!")
        assert [t.surface for t in tokens] == ["@john", "is", "sick", "!", "!", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_char_ranges_map_back(self):
        text = "My friend HAS cancer."
        for tok in tokenize(text):
            assert text[tok.start:tok.end].lower() == tok.surface

    def test_hashtag_split_keeps_tag_word(self):
        assert [t.surface for t in tokenize("#flu season")] == ["#", "flu", "season"]


def test_sentence_spans_on_terminators_and_newlines():
    text = "i am sick!!! call the doctor\nplease come"
    tokens = tokenize(text)
    spans = sentence_spans(token_surfaces(text), text)
    sentences = [[t.surface for t in tokens[s:e]] for s, e in spans]
    assert sentences == [
        ["i", "am", "sick", "!", "!", "!"],
        ["call", "the", "doctor"],
        ["please", "come"],
    ]


def test_blank_lines_and_crlf_break_a_sentence_once():
    text = "\nsick.\r\n\n well\r\n\r\nthen\n"
    assert sentence_spans(token_surfaces(text), text) == [(0, 2), (2, 3), (3, 4)]


class TestHumanMentions:
    def test_pronoun_rule(self, lexicons):
        tokens = token_surfaces("i just went to the doctor")
        mentions = extract_human_mentions(tokens, lexicons)
        surfaces = [m.surface for m in mentions]
        assert surfaces[0] == "i"
        assert "doctor" in surfaces  # person dictionary

    def test_it_never_marked(self, lexicons):
        tokens = token_surfaces("it hurts and its sting and itself")
        assert extract_human_mentions(tokens, lexicons) == []

    def test_at_mention_rule(self, lexicons):
        tokens = token_surfaces("@nurse_joy call home")
        mentions = extract_human_mentions(tokens, lexicons)
        assert mentions[0].surface == "@nurse_joy"

    def test_dictionary_and_pronoun_trace(self, lexicons):
        # rule-by-rule: "@mary" by the handle rule, "my" by the pronoun
        # lexicon, "friend" by the person dictionary, "and" by nothing
        tokens = token_surfaces("@mary and my friend")
        mentions = extract_human_mentions(tokens, lexicons)
        assert [(m.surface, m.token_range) for m in mentions] == [
            ("@mary", (0, 1)), ("my", (2, 3)), ("friend", (3, 4))]

    def test_ordered_by_position(self, lexicons):
        tokens = token_surfaces("doctor saw me and my mom")
        mentions = extract_human_mentions(tokens, lexicons)
        starts = [m.token_range[0] for m in mentions]
        assert starts == sorted(starts)


class TestSynthesizer:
    def _run(self, text, lexicons):
        return synthesize_human_mention(token_surfaces(text), lexicons)

    def test_past_tense_prepends_i(self, lexicons):
        _, fired = synthesize_human_mention(token_surfaces("went to the er"), lexicons)
        tokens = process_document(Document(id="x", text="went to the er"),
                                  task_preset("phm-cancer"), lexicons).tokens
        assert fired
        assert [t.surface for t in tokens] == ["i", "went", "to", "the", "er"]
        assert (tokens[0].start, tokens[0].end) == (0, 0)  # covers no source text

    def test_adjective_prepends_i_am(self, lexicons):
        out, _ = self._run("sick of this flu", lexicons)
        assert out == ["i", "am", "sick", "of", "this", "flu"]

    def test_past_participle_prepends_i_have(self, lexicons):
        out, _ = self._run("diagnosed with flu", lexicons)
        assert out == ["i", "have", "diagnosed", "with", "flu"]

    def test_present_continuous_prepends_i_am(self, lexicons):
        out, _ = self._run("coughing all night", lexicons)
        assert out == ["i", "am", "coughing", "all", "night"]

    def test_is_replaced_with_i_am(self, lexicons):
        out, _ = self._run("is feeling sick", lexicons)
        assert out == ["i", "am", "feeling", "sick"]

    def test_no_rule_fires(self, lexicons):
        out, fired = self._run("the earthquake hit", lexicons)
        assert out == ["the", "earthquake", "hit"]
        assert not fired

    def test_one_rule_only_ed_adjectives(self, lexicons):
        # "tired" ends in -ed but reads as an adjective, not "i tired"
        out, _ = self._run("tired of being sick", lexicons)
        assert out[:3] == ["i", "am", "tired"]

    def test_idempotent_on_own_output(self, lexicons):
        first, fired = synthesize_human_mention(
            token_surfaces("diagnosed with flu"), lexicons)
        assert fired
        second, again = synthesize_human_mention(first, lexicons)
        assert not again
        assert second == first

    def test_empty_sentence(self, lexicons):
        out, fired = synthesize_human_mention([], lexicons)
        assert out == [] and not fired

    def test_document_gate_skips_initial_mentions(self, lexicons):
        text = "my friend is sick. hospitalized now"
        _, rewrites = synthesize_document(token_surfaces(text), text, lexicons)
        assert rewrites == ((5, 2, 0),)  # "i have" inserted before token 5
        tokens = process_document(Document(id="g", text=text), task_preset("phm-cancer"),
                                  lexicons).tokens
        surfaces = [t.surface for t in tokens]
        # first sentence opens with "my": untouched; second gets "i have"
        assert surfaces[:3] == ["my", "friend", "is"]
        assert surfaces[surfaces.index("hospitalized") - 2:][:2] == ["i", "have"]
        assert [t.surface for t in tokens if t.start == t.end] == ["i", "have"]

    def test_synthetic_exactly_where_the_token_is_zero_width(self, lexicons):
        # only the rewrites insert zero-width tokens; "is" becomes "i am" too
        text = "is sick. my mom went home\nwent out. @bob is here. i am too"
        doc = Document(id="z", text=text)
        preset = task_preset("phm-cancer")
        pdoc = process_document(doc, preset, lexicons)
        human = [m for m, _ in pdoc.bag("human").instances]
        assert [(m.surface, m.synthetic) for m in human] == [
            ("i", True), ("my", False), ("mom", False), ("i", True), ("@bob", False),
            ("i", False)]
        for m in human:
            token = pdoc.tokens[m.token_range[0]]
            assert m.synthetic == (token.start == token.end)


class TestKeywordMentions:
    def test_crisis_keywords(self):
        kcs = KeyConceptSet(name="crisis", kind="keyword",
                            keywords=("earthquake", "quake"))
        mentions = extract_keyword_mentions(token_surfaces("the quake hit"), kcs)
        assert [(m.surface, m.token_range) for m in mentions] == [("quake", (1, 2))]

    def test_no_keywords_present(self):
        kcs = KeyConceptSet(name="disease", kind="keyword", keywords=("cancer",))
        assert extract_keyword_mentions(token_surfaces("all is well"), kcs) == []

    def test_multiplicity(self):
        kcs = KeyConceptSet(name="disease", kind="keyword", keywords=("cancer",))
        mentions = extract_keyword_mentions(
            token_surfaces("cancer sucks , cancer again"), kcs)
        assert [m.token_range for m in mentions] == [(0, 1), (3, 4)]

    def test_multi_token_keyword(self):
        kcs = KeyConceptSet(name="disease", kind="keyword", keywords=("heart attack",))
        mentions = extract_keyword_mentions(
            token_surfaces("had a heart attack yesterday"), kcs)
        assert [m.token_range for m in mentions] == [(2, 4)]
        assert mentions[0].surface == "heart attack"

    def test_case_insensitive(self):
        kcs = KeyConceptSet(name="disease", kind="keyword", keywords=("Cancer",))
        assert len(extract_keyword_mentions(token_surfaces("CANCER awareness"), kcs)) == 1

    def test_bruteforce_oracle_on_random_documents(self):
        # independent oracle for single-token keywords: a plain membership scan
        rng = np.random.default_rng(77)
        alphabet = [f"w{i}" for i in range(6)]
        kcs = KeyConceptSet(name="k", kind="keyword", keywords=("w0", "w3"))
        for _ in range(100):
            surfaces = [alphabet[rng.integers(6)] for _ in range(rng.integers(0, 15))]
            expected = [i for i, s in enumerate(surfaces) if s in ("w0", "w3")]
            found = [m.token_range[0] for m in extract_keyword_mentions(surfaces, kcs)]
            assert found == expected

    def test_longest_keyword_wins(self):
        kcs = KeyConceptSet(name="d", kind="keyword",
                            keywords=("heart", "heart attack", "heart attack risk"))
        mentions = extract_keyword_mentions(
            token_surfaces("heart attack risk , heart attack and heart"), kcs)
        assert [(m.surface, m.token_range) for m in mentions] == [
            ("heart attack risk", (0, 3)), ("heart attack", (4, 6)), ("heart", (7, 8))]

    def test_equal_length_tie_keeps_tuple_order(self):
        # the order the matcher tries the keywords of one first token in:
        # longest first, equal lengths in tuple order, case duplicates merged
        kcs = KeyConceptSet(name="k", kind="keyword",
                            keywords=("a c", "A B", "a", "a b c", "a b", "b c"))
        assert kcs._by_first_token == {
            "a": [("a", "b", "c"), ("a", "b"), ("a", "c"), ("a",)],
            "b": [("b", "c")],
        }

    def test_hyphenated_keyword_is_one_mention(self):
        kcs = KeyConceptSet(name="drug", kind="keyword", keywords=("pepto-bismol",))
        mentions = extract_keyword_mentions(token_surfaces("took Pepto-Bismol twice"), kcs)
        assert [(m.surface, m.token_range) for m in mentions] == [
            ("pepto - bismol", (1, 4))]

    def test_keyword_without_tokens_is_ignored(self):
        kcs = KeyConceptSet(name="k", kind="keyword", keywords=("  ", "flu"))
        mentions = extract_keyword_mentions(token_surfaces("flu  season"), kcs)
        assert [m.token_range for m in mentions] == [(0, 1)]

    def test_packaged_drug_list_finds_back_to_back_names(self):
        drug = task_preset("adr").kcs_list[1]
        tokens = token_surfaces("advil tylenol aspirin then pepto bismol ibuprofen")
        expected = [("advil", (0, 1)), ("tylenol", (1, 2)), ("aspirin", (2, 3)),
                    ("pepto bismol", (4, 6)), ("ibuprofen", (6, 7))]
        for view in (drug, pickle.loads(pickle.dumps(drug))):
            assert [(m.surface, m.token_range)
                    for m in extract_keyword_mentions(tokens, view)] == expected

    def test_keywords_are_tokenized_when_the_view_is_built(self, lexicons, monkeypatch):
        preset = task_preset("adr")
        calls = []
        real_tokenize = concepts.token_surfaces

        def counting_tokenize(text):
            calls.append(text)
            return real_tokenize(text)

        monkeypatch.setattr(concepts, "token_surfaces", counting_tokenize)
        texts = ["my mom took advil and tylenol", "went to bed", "", "@amy: xanax?"]
        for i, text in enumerate(texts):
            process_document(Document(id=str(i), text=text), preset, lexicons)
        assert calls == texts


# the matcher before views were compiled: every keyword re-tokenised, sorted
# longest first with ties in tuple order, and tried at every token
def _scan_keyword_mentions(tokens, kcs, doc_id=""):
    seqs = {tuple(t.surface for t in tokenize(kw)) for kw in kcs.keywords}
    seqs.discard(())
    sequences = sorted(seqs, key=lambda s: (-len(s), s))
    surfaces = list(tokens)
    mentions = []
    i = 0
    while i < len(surfaces):
        matched = None
        for seq in sequences:
            if tuple(surfaces[i : i + len(seq)]) == seq:
                matched = seq
                break
        if matched is None:
            i += 1
            continue
        mentions.append(
            Mention(doc_id=doc_id, kcs_name=kcs.name, token_range=(i, i + len(matched)),
                    surface=" ".join(matched))
        )
        i += len(matched)
    return mentions


# pieces of a small alphabet: joined with spaces they make multi-word
# keywords, prefixes of one another, case variants and punctuation; joined
# without, new words ("ab") or runs of punctuation
_PIECES = st.sampled_from(["a", "b", "ab", "A", "aB", "-", ".", "'"])
_PHRASES = st.builds(
    lambda pieces, sep: sep.join(pieces),
    st.lists(_PIECES, max_size=4), st.sampled_from([" ", ""]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_PHRASES, min_size=1, max_size=8),
       st.lists(_PIECES, max_size=30).map(" ".join))
def test_indexed_matcher_equals_the_full_scan(keywords, text):
    kcs = KeyConceptSet(name="k", kind="keyword", keywords=tuple(keywords))
    tokens = token_surfaces(text)
    assert (extract_keyword_mentions(tokens, kcs, doc_id="d")
            == _scan_keyword_mentions(tokens, kcs, doc_id="d"))


def _masked_surfaces(tokens, mentions, mask_token):
    masked, _ = _masked_tokens_with_map(
        tokens, [(m.token_range, mask_token) for m in mentions])
    return masked


class TestMask:
    def test_hum_tok(self, lexicons):
        pdoc = process_document(Document(id="1", text="my friend has cancer"),
                                task_preset("phm-cancer"), lexicons)
        assert list(pdoc.masked_tokens) == [HUM_TOK, HUM_TOK, "has", "cancer"]

    def test_drug_tok(self, lexicons):
        pdoc = process_document(Document(id="1", text="advil twice"),
                                task_preset("adr"), lexicons)
        assert list(pdoc.masked_tokens) == [DRUG_TOK, "twice"]

    def test_no_mentions_identity(self):
        tokens = token_surfaces("feeling fine today")
        masked, index_map = _masked_tokens_with_map(tokens, [])
        assert masked == tokens
        assert index_map == [0, 1, 2]

    def test_overlap_rejected(self):
        tokens = token_surfaces("a b c")
        with pytest.raises(ConceptError, match="overlap"):
            _masked_tokens_with_map(tokens, [((0, 2), "M"), ((1, 3), "M")])

    def test_count_preserved_and_rest_untouched(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            surfaces = [("x" if rng.random() < 0.3 else f"t{rng.integers(5)}")
                        for _ in range(n)]
            tokens = surfaces
            mentions = [
                Mention(doc_id="", kcs_name="k", token_range=(i, i + 1), surface="x")
                for i, s in enumerate(surfaces) if s == "x"
            ]
            masked = _masked_surfaces(tokens, mentions, "M")
            assert len(masked) == len(tokens)
            starts = {m.token_range[0] for m in mentions}
            for i, surface in enumerate(masked):
                assert surface == ("M" if i in starts else surfaces[i])

    def test_multi_token_collapse(self):
        kcs = KeyConceptSet(name="drug", kind="keyword", keywords=("pepto bismol",),
                            mask_token=DRUG_TOK)
        tokens = token_surfaces("took pepto bismol today")
        mentions = extract_keyword_mentions(tokens, kcs)
        assert _masked_surfaces(tokens, mentions, DRUG_TOK) == ["took", DRUG_TOK, "today"]


class TestBuildBags:
    def test_two_mention_positive_document(self, lexicons, phm_cancer):
        # "me" annotated positive, "friend" negative, "cancer" positive
        text = "cancer hit me and my friend"
        me = text.index("me")
        doc = Document(id="1", text=text, gold_label=POSITIVE,
                       positive_human_spans=((me, me + 2),))
        bags = {b.kcs_name: b for b in process_document(doc, phm_cancer, lexicons).bags}
        human = {m.surface: label for m, label in bags["human"].instances}
        assert human["me"] == POSITIVE
        assert human["friend"] == NEGATIVE
        disease = [(m.surface, label) for m, label in bags["disease"].instances]
        assert disease == [("cancer", POSITIVE)]

    def test_negative_document_all_negative(self, lexicons, phm_cancer):
        doc = Document(id="2", text="worried about cancer awareness for my mom",
                       gold_label=NEGATIVE)
        bags = process_document(doc, phm_cancer, lexicons).bags
        for bag in bags:
            assert bag.instances
            assert all(label == NEGATIVE for _, label in bag.instances)

    def test_unlabeled_document(self, lexicons, phm_cancer):
        doc = Document(id="3", text="my friend has cancer")
        for bag in process_document(doc, phm_cancer, lexicons).bags:
            assert all(label == UNLABELED for _, label in bag.instances)

    def test_positive_without_spans_warns(self, lexicons, phm_cancer, caplog):
        doc = Document(id="4", text="i have cancer", gold_label=POSITIVE)
        with caplog.at_level(logging.WARNING, logger="codecomp.concepts"):
            bags = {b.kcs_name: b for b in process_document(doc, phm_cancer, lexicons).bags}
        assert "no positive_human_spans" in caplog.text
        assert all(label == UNLABELED for _, label in bags["human"].instances)
        assert all(label == POSITIVE for _, label in bags["disease"].instances)

    def test_synthetic_mentions_label_negative_when_spans_exist(
            self, lexicons, phm_cancer):
        text = "my son has cancer. diagnosed yesterday"
        son = text.index("son")
        doc = Document(id="5", text=text, gold_label=POSITIVE,
                       positive_human_spans=((son, son + 3),))
        bags = {b.kcs_name: b for b in process_document(doc, phm_cancer, lexicons).bags}
        by_surface = {(m.surface, m.synthetic): label
                      for m, label in bags["human"].instances}
        assert by_surface[("son", False)] == POSITIVE
        assert by_surface[("i", True)] == NEGATIVE

    def test_policy_rederivation(self, lexicons, phm_cancer):
        # independent recheck of every instance label against the rules
        docs = [
            Document(id="a", text="cancer got my mom. hurts", gold_label=POSITIVE,
                     positive_human_spans=((14, 17),)),
            Document(id="b", text="cancer awareness run with my friend",
                     gold_label=NEGATIVE),
            Document(id="c", text="she fears cancer"),
        ]
        for doc in docs:
            pdoc = process_document(doc, phm_cancer, lexicons)
            for bag, kcs in zip(pdoc.bags, phm_cancer.kcs_list):
                for mention, label in bag.instances:
                    if doc.gold_label is None:
                        expected = UNLABELED
                    elif doc.gold_label == NEGATIVE:
                        expected = NEGATIVE
                    elif kcs.kind == "keyword":
                        expected = POSITIVE
                    elif mention.synthetic:
                        expected = NEGATIVE
                    else:
                        s, e = mention.token_range
                        lo = pdoc.tokens[s].start
                        hi = pdoc.tokens[e - 1].end
                        hit = any(lo < b and a < hi
                                  for a, b in doc.positive_human_spans)
                        expected = POSITIVE if hit else NEGATIVE
                    assert label == expected, (doc.id, mention.surface)


def test_masked_ranges_follow_collapse(lexicons):
    preset = task_preset("adr")
    text = "my friend took pepto bismol and advil"
    doc = Document(id="1", text=text)
    pdoc = process_document(doc, preset, lexicons)
    masked = list(pdoc.masked_tokens)
    assert masked == ["HUM_TOK", "HUM_TOK", "took", DRUG_TOK, "and", DRUG_TOK]
    drug_ranges = pdoc.masked_ranges["drug"]
    assert [masked[s:e] for s, e in drug_ranges] == [[DRUG_TOK], [DRUG_TOK]]
    shifted = pdoc.masked_instances("drug")
    assert [m.token_range for m, _ in shifted] == [tuple(r) for r in drug_ranges]
    assert [(m.surface, label) for m, label in shifted] == [
        (m.surface, label) for m, label in pdoc.bag("drug").instances]
    assert [m for m, _ in shifted] == [
        replace(m, token_range=tuple(r))
        for (m, _), r in zip(pdoc.bag("drug").instances, drug_ranges)]


# The pipeline before documents became surface lists: one Token per regex
# match, carried with its character range through sentence splitting, the
# rewrites, mention extraction, labelling and masking.
def _reference_process_document(doc, preset, lexicons):
    def human(surface):
        return (surface in lexicons.pronouns or surface.startswith("@")
                or surface in lexicons.person_dictionary)

    def sentence_spans(tokens, text):
        spans, start, i, n = [], 0, 0, len(tokens)
        while i < n:
            if tokens[i].surface in (".", "!", "?"):
                while i + 1 < n and tokens[i + 1].surface in (".", "!", "?"):
                    i += 1
                spans.append((start, i + 1))
                start = i + 1
            elif i + 1 < n and "\n" in text[tokens[i].end:tokens[i + 1].start]:
                spans.append((start, i + 1))
                start = i + 1
            i += 1
        if start < n:
            spans.append((start, n))
        return spans

    def rewrite(sentence):
        first, at, rest = sentence[0].surface, sentence[0].start, list(sentence)
        if concepts._is_past_tense(first, lexicons):
            inserted = ["i"]
        elif first in lexicons.common_adjectives:
            inserted = ["i", "am"]
        elif first in lexicons.past_participles:
            inserted = ["i", "have"]
        elif concepts._is_present_continuous(first):
            inserted = ["i", "am"]
        elif first == "is":
            inserted, rest = ["i", "am"], rest[1:]
        else:
            return rest
        return [Token(s, at, at) for s in inserted] + rest

    text = doc.text
    tokens = tokenize(text)
    if preset.has_human_view:
        out = []
        for start, end in sentence_spans(tokens, text):
            sentence = tokens[start:end]
            out.extend(sentence if human(sentence[0].surface) else rewrite(sentence))
        tokens = out
    view_mentions = {
        kcs.name: ([Mention(doc.id, kcs.name, (i, i + 1), t.surface, t.start == t.end)
                    for i, t in enumerate(tokens) if human(t.surface)]
                   if kcs.kind == "human" else
                   _scan_keyword_mentions([t.surface for t in tokens], kcs, doc.id))
        for kcs in preset.kcs_list
    }

    def label(kcs, m):
        if doc.gold_label is None:
            return UNLABELED
        if doc.gold_label == NEGATIVE:
            return NEGATIVE
        if kcs.kind == "keyword":
            return POSITIVE
        if not doc.positive_human_spans:
            return UNLABELED
        lo, hi = tokens[m.token_range[0]].start, tokens[m.token_range[1] - 1].end
        hit = any(lo < b and a < hi for a, b in doc.positive_human_spans)
        return POSITIVE if hit and not m.synthetic else NEGATIVE

    bags = tuple(concepts.Bag(doc.id, kcs.name,
                              tuple((m, label(kcs, m)) for m in view_mentions[kcs.name]))
                 for kcs in preset.kcs_list)
    replacements = sorted(((m.token_range, kcs.mask_token) for kcs in preset.kcs_list
                           if kcs.mask_token for m in view_mentions[kcs.name]),
                          key=lambda r: r[0])
    for ((_, e1), _), ((s2, _), _) in zip(replacements, replacements[1:]):
        if s2 < e1:
            raise ConceptError("overlapping mentions cannot be masked")
    masked, index_map, cursor = [], [0] * len(tokens), 0
    for (s, e), surface in replacements:
        for i in range(cursor, s):
            index_map[i] = len(masked)
            masked.append(tokens[i])
        for i in range(s, e):
            index_map[i] = len(masked)
        masked.append(Token(surface, tokens[s].start, tokens[e - 1].end))
        cursor = e
    for i in range(cursor, len(tokens)):
        index_map[i] = len(masked)
        masked.append(tokens[i])
    ranges = {kcs.name: [(index_map[m.token_range[0]], index_map[m.token_range[1] - 1] + 1)
                         for m in view_mentions[kcs.name]]
              for kcs in preset.kcs_list}
    return tokens, bags, masked, ranges


def _reference_enriched_record(doc, preset, tokens, bags, masked, ranges):
    return {
        "id": doc.id, "text": doc.text, "gold_label": doc.gold_label,
        "positive_human_spans": [list(s) for s in doc.positive_human_spans],
        "task": doc.task,
        "tokens": [[t.surface, t.start, t.end] for t in tokens],
        "masked_tokens": [t.surface for t in masked],
        "bags": [{"kcs": bag.kcs_name, "kind": kcs.kind, "instances": [
            {"token_range": list(m.token_range),
             "masked_token_range": list(ranges[bag.kcs_name][i]),
             "surface": m.surface, "synthetic": m.synthetic, "label": label}
            for i, (m, label) in enumerate(bag.instances)]}
            for bag, kcs in zip(bags, preset.kcs_list)],
    }


def _reference_vector(masked, token_range, window, dim):
    s, e = token_range
    vec = np.zeros(dim)
    for t in masked[max(0, s - window):s]:
        vec[_bucket("L", t.surface, dim)] += 1.0
    for t in masked[e:e + window]:
        vec[_bucket("R", t.surface, dim)] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


# words that fire each rule, words that do not, keywords of the presets below
# (multi-token, hyphenated, cased), handles, terminator runs and characters
# whose lowercase differs in length
_DIFF_WORDS = st.sampled_from([
    "went", "Walked", "sick", "tired", "diagnosed", "coughing", "nothing", "is", "IS",
    "i", "My", "me", "mom", "doctor", "it", "the", "and", "took", "@bob", "@Amy_1",
    "@", "Advil", "pepto bismol", "Pepto-Bismol", "tylenol", "flu", "quake",
    "earthquake", "alpha", "beta", ".", "!", "?", "?!.", "!!!", ",", "'",
    "İstanbul", "ẞ", "İ", "Straße",
])
_DIFF_SEPARATORS = st.sampled_from([" ", " ", "", "\n", "\r\n", "  ", " \n "])
_DIFF_PRESETS = {name: task_preset(name) for name in ("adr", "phm-flu", "crisis-earthquake")}
_DIFF_PRESETS["two-view"] = two_view_preset()


@st.composite
def _diff_documents(draw):
    docs = []
    for k in range(draw(st.integers(1, 4))):
        text = "".join(w + sep for w, sep in draw(
            st.lists(st.tuples(_DIFF_WORDS, _DIFF_SEPARATORS), max_size=14)))
        gold = draw(st.sampled_from([None, NEGATIVE, POSITIVE]))
        cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=6))) \
            if gold == POSITIVE else []
        docs.append(Document(id=f"d{k}", text=text, gold_label=gold,
                             positive_human_spans=tuple(zip(cuts[::2], cuts[1::2]))))
    return docs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_diff_documents(), st.sampled_from(sorted(_DIFF_PRESETS)))
def test_surface_pipeline_equals_the_token_pipeline(lexicons, docs, preset_name):
    preset = _DIFF_PRESETS[preset_name]
    provider = HashedWindowProvider(window=2, dim=16)
    pdocs = [process_document(doc, preset, lexicons) for doc in docs]
    examples = build_examples(pdocs, provider, [k.name for k in preset.kcs_list])
    for doc, pdoc, example in zip(docs, pdocs, examples):
        tokens, bags, masked, ranges = _reference_process_document(doc, preset, lexicons)
        assert pdoc.tokens == tuple(tokens)
        assert pdoc.surfaces == tuple(t.surface for t in tokens)
        assert pdoc.bags == bags
        assert pdoc.masked_tokens == tuple(t.surface for t in masked)
        assert pdoc.masked_ranges == ranges
        assert json.dumps(cli._enriched_record(pdoc, preset)) == json.dumps(
            _reference_enriched_record(doc, preset, tokens, bags, masked, ranges))
        for kcs, bag, view in zip(preset.kcs_list, bags, example.views):
            assert pdoc.masked_instances(kcs.name) == [
                (replace(m, token_range=r), label)
                for (m, label), r in zip(bag.instances, ranges[kcs.name])]
            want = np.array([_reference_vector(masked, r, 2, 16)
                             for r in ranges[kcs.name]]).reshape(-1, 16)
            assert view.vectors.tobytes() == want.tobytes()
        features = document_features(doc)
        assert list(features.items()) == list(
            ngram_counts([t.surface for t in tokenize(doc.text)]).items())


def test_pickled_lexicons_process_alike_in_a_worker(lexicons):
    preset = task_preset("adr")
    docs = [Document(id=str(k), text=text) for k, text in enumerate(
        ["my mom took advil\nis sick", "went to bed. @amy: xanax?", "", "İstanbul ẞ"])]
    expected = [process_document(d, preset, lexicons) for d in docs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
        got = list(pool.map(process_document, docs, [preset] * len(docs),
                            [lexicons] * len(docs)))
    assert got == expected
    assert [p.tokens for p in got] == [p.tokens for p in expected]


def test_wordlists_are_lowercase_and_unique(lexicons):
    for entries in (lexicons.pronouns, lexicons.person_dictionary,
                    lexicons.irregular_past_verbs, lexicons.common_adjectives,
                    lexicons.past_participles):
        assert entries
        assert all(e == e.lower() for e in entries)


def test_wordlist_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("alpha\nbeta\nalpha\n", encoding="utf-8")
    with pytest.raises(ConceptError, match="duplicate"):
        load_wordlist(path)


def test_wordlist_comments_and_blanks(tmp_path):
    path = tmp_path / "list.txt"
    path.write_text("# header\nalpha  # trailing\n\nBeta\n", encoding="utf-8")
    assert load_wordlist(path) == ("alpha", "beta")


def test_lexicon_dir_env_moves_every_lexicon(tmp_path, monkeypatch):
    # CODECOMP_LEXICON_DIR is the one way to read other lexicons: the human
    # view's word lists and the adr preset's drug names both follow it
    copy = tmp_path / "lexicons"
    shutil.copytree(concepts.DATA_DIR, copy)
    with open(copy / "pronouns.txt", "a", encoding="utf-8") as fh:
        fh.write("zir\n")
    (copy / "drug_names.txt").write_text("zorblax\nmega cillin\n", encoding="utf-8")
    tokens = token_surfaces("zir took zorblax")
    monkeypatch.delenv(concepts.LEXICON_DIR_ENV, raising=False)
    assert extract_human_mentions(tokens, concepts.load_lexicons()) == []
    assert "zorblax" not in task_preset("adr").kcs_list[1].keywords
    monkeypatch.setenv(concepts.LEXICON_DIR_ENV, str(copy))
    mentions = extract_human_mentions(tokens, concepts.load_lexicons())
    assert [m.surface for m in mentions] == ["zir"]
    assert task_preset("adr").kcs_list[1].keywords == ("zorblax", "mega cillin")


def test_kcs_validation():
    with pytest.raises(ConceptError, match="keywords"):
        KeyConceptSet(name="d", kind="keyword")
    with pytest.raises(ConceptError, match="kind"):
        KeyConceptSet(name="d", kind="verb")


@pytest.mark.parametrize("section, key", [
    ("[human]\nkind = human\nmask = HUM_TOK\n", "mask"),
    ("[drug]\nkind = keyword\nkeywords_fil = drugs.txt\n", "keywords_fil"),
], ids=["mask", "keywords_fil"])
def test_preset_file_rejects_an_unknown_key(tmp_path, section, key):
    path = tmp_path / "preset.ini"
    path.write_text(section, encoding="utf-8")
    view = section[1:section.index("]")]
    with pytest.raises(ConceptError,
                       match=rf"preset\.ini, \[{view}\]: unknown key '{key}'"):
        load_preset_file(path)


def test_preset_file_rejects_keywords_next_to_a_keywords_file(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("flu\n", encoding="utf-8")
    path = tmp_path / "preset.ini"
    path.write_text(f"[disease]\nkeywords = cancer\nkeywords_file = {words}\n",
                    encoding="utf-8")
    with pytest.raises(ConceptError,
                       match=r"preset\.ini, \[disease\]: give keywords or "
                             "keywords_file, not both"):
        load_preset_file(path)
