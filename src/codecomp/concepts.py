"""Mention-level view construction for concept-decomposed classification.

A task decomposes into named concept views (human mentions, disease keywords,
drug names, ...). This module finds the mention occurrences of each view in a
document, inserts elided first-person mentions with sentence-start rewrite
rules, rewrites mentions to mask tokens, and packages everything into
per-view bags with automatically derived instance labels.

The human-mention detector is intentionally shallow: pronoun and person-word
lexicons plus @-handles. It is noisy by design and meant to be replaced by a
stronger tagger without touching anything downstream.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

from .corpus import Document, NEGATIVE, POSITIVE

logger = logging.getLogger(__name__)

UNLABELED = "unlabeled"

DATA_DIR = Path(__file__).parent / "data"
LEXICON_DIR_ENV = "CODECOMP_LEXICON_DIR"

# @handles stay whole; words split from punctuation; punctuation one char each
_TOKEN_RE = re.compile(r"@\w+|\w+|[^\w\s]", re.UNICODE)

_SENTENCE_END = frozenset({".", "!", "?"})

# common sentence-initial -ing words that are not progressive verbs
_NON_VERB_ING = frozenset({
    "anything", "everything", "nothing", "something", "thing",
    "morning", "evening", "spring", "string", "bring", "during",
})


class ConceptError(ValueError):
    pass


class Token(NamedTuple):
    surface: str
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    """Lowercased tokens with character ranges back into the original text."""
    return [
        Token(m.group().lower(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)
    ]


def token_surfaces(text: str) -> list[str]:
    """The surfaces of ``tokenize(text)``, without character ranges.

    Each match is lowercased on its own: lowercasing the whole text could
    change its length and its tokens ("İ" lowercases to two characters).
    """
    return list(map(str.lower, _TOKEN_RE.findall(text)))


def sentence_spans(surfaces, text: str) -> list[tuple[int, int]]:
    """[start, end) token index ranges of sentences; ``surfaces`` are the
    surfaces of ``tokenize(text)``.

    A sentence ends after a run of '.', '!' or '?' tokens, or where the
    original text has a newline between consecutive tokens. No token holds
    a newline, so the tokens before each newline are counted line by line.
    """
    n = len(surfaces)
    if not n:
        return []
    ends = _SENTENCE_END
    starts = [i + 1 for i, s in enumerate(surfaces)
              if s in ends and i + 1 < n and surfaces[i + 1] not in ends]
    if "\n" in text:
        before = accumulate(len(_TOKEN_RE.findall(line)) for line in text.split("\n")[:-1])
        starts += {c for c in before if 0 < c < n and surfaces[c - 1] not in ends}
        starts.sort()
    bounds = [0, *starts, n]
    return list(zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# Lexicons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lexicons:
    pronouns: frozenset
    person_dictionary: frozenset
    irregular_past_verbs: frozenset
    common_adjectives: frozenset
    past_participles: frozenset

    @cached_property
    def human_words(self) -> frozenset:
        """Pronouns and person words: the human mentions other than @-handles."""
        return self.pronouns | self.person_dictionary

    @cached_property
    def _opener_rewrites(self) -> dict:
        # sentence opener -> the rewrite it fires, filled by _sentence_rewrite;
        # a cache of a pure function of (opener, these lexicons)
        return {}


def load_wordlist(path) -> tuple[str, ...]:
    """One entry per line, UTF-8, '#' comments; entries lowercased, unique."""
    entries = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            entry = line.split("#", 1)[0].strip().lower()
            if not entry:
                continue
            if entry in seen:
                raise ConceptError(f"{path}: duplicate entry {entry!r} at line {line_no}")
            seen.add(entry)
            entries.append(entry)
    return tuple(entries)


def lexicon_dir() -> Path:
    """``CODECOMP_LEXICON_DIR`` where it is set, else the bundled lexicons."""
    env = os.environ.get(LEXICON_DIR_ENV)
    return Path(env) if env else DATA_DIR


def load_lexicons() -> Lexicons:
    base = lexicon_dir()
    return Lexicons(
        pronouns=frozenset(load_wordlist(base / "pronouns.txt")),
        person_dictionary=frozenset(load_wordlist(base / "person_dictionary.txt")),
        irregular_past_verbs=frozenset(load_wordlist(base / "irregular_past_verbs.txt")),
        common_adjectives=frozenset(load_wordlist(base / "adjectives.txt")),
        past_participles=frozenset(load_wordlist(base / "past_participles.txt")),
    )


# ---------------------------------------------------------------------------
# Concept views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyConceptSet:
    """One concept view: the human-mention view or a keyword list."""

    name: str
    kind: str  # "human" | "keyword"
    keywords: tuple[str, ...] = ()
    mask_token: str | None = None
    # first token -> the keyword token sequences starting with it, in the
    # order the matcher tries them: longest first, so a multi-word name wins
    # over its own first word, and ties in tuple order
    _by_first_token: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("human", "keyword"):
            raise ConceptError(f"kcs {self.name!r}: unknown kind {self.kind!r}")
        object.__setattr__(self, "keywords", tuple(k.lower() for k in self.keywords))
        if self.kind == "keyword" and not self.keywords:
            raise ConceptError(f"kcs {self.name!r}: keyword view needs keywords")
        if self.kind == "human" and self.keywords:
            raise ConceptError(f"kcs {self.name!r}: human view takes no keywords")
        seqs = {tuple(token_surfaces(kw)) for kw in self.keywords}
        seqs.discard(())
        index: dict = {}
        for seq in sorted(seqs, key=lambda s: (-len(s), s)):
            index.setdefault(seq[0], []).append(seq)
        object.__setattr__(self, "_by_first_token", index)


class Mention(NamedTuple):
    token_range: tuple[int, int]  # [start, end) token indices
    surface: str
    synthetic: bool = False  # inserted by a sentence-start rewrite


@dataclass(frozen=True)
class Bag:
    """All mention occurrences of one concept view within one document.

    ``masked_ranges[i]`` is instance i's [start, end) range within the
    document's ``masked_tokens``: masking collapses a multi-token mention
    to one token, which shifts the positions after it.
    """

    kcs_name: str
    instances: tuple[tuple[Mention, str], ...]  # (mention, label)
    masked_ranges: tuple[tuple[int, int], ...]


def extract_human_mentions(surfaces, lexicons: Lexicons, synthetic=()) -> list[Mention]:
    """Single-token human mentions: lexicon pronouns, @-handles, person words.

    "it" never matches -- it is deliberately absent from the pronoun lexicon.
    ``synthetic`` holds the positions of the tokens a sentence-start rewrite
    inserted; a mention there is synthetic.
    """
    human = lexicons.human_words
    return [
        Mention((i, i + 1), surface, i in synthetic)
        for i, surface in enumerate(surfaces)
        if surface in human or surface[0] == "@"
    ]


def _is_past_tense(word: str, lexicons: Lexicons) -> bool:
    if word in lexicons.irregular_past_verbs:
        return True
    return word.endswith("ed") and len(word) >= 4 and word not in lexicons.past_participles


def _is_present_continuous(word: str) -> bool:
    return word.endswith("ing") and len(word) >= 5 and word not in _NON_VERB_ING


def _sentence_rewrite(first: str, lexicons: Lexicons):
    """The rewrite that fires on a sentence opening with ``first``: the
    tokens it inserts and how many of the sentence's own tokens they
    replace, or None. Worked out once per opener and lexicons."""
    memo = lexicons._opener_rewrites
    try:
        return memo[first]
    except KeyError:
        rewrite = memo[first] = _opener_rule(first, lexicons)
        return rewrite


def _opener_rule(first: str, lexicons: Lexicons):
    if _is_past_tense(first, lexicons):
        return ("i",), 0
    if first in lexicons.common_adjectives:
        return ("i", "am"), 0
    if first in lexicons.past_participles:
        return ("i", "have"), 0
    if _is_present_continuous(first):
        return ("i", "am"), 0
    if first == "is":
        return ("i", "am"), 1
    return None


def synthesize_document(surfaces, text: str, lexicons: Lexicons):
    """Insert the elided first-person mention of every sentence that
    opens without a human mention.

    ``surfaces`` are the surfaces of ``tokenize(text)``. At most one of five
    rewrites fires per sentence, checked in order against its first
    surface: past-tense verb -> prepend "i"; adjective -> prepend "i am";
    past participle -> prepend "i have"; -ing verb -> prepend "i am";
    literal "is" -> replace with "i am". Returns the new surface list and
    the rewrites made, each as (position of its first inserted token in the
    new list, tokens inserted, tokens replaced). Idempotent: "i" is a human
    mention and matches no rule.
    """
    human = lexicons.human_words
    out, rewrites = [], []
    cursor = 0  # the next token of ``surfaces`` not yet in ``out``
    for start, _ in sentence_spans(surfaces, text):
        first = surfaces[start]
        if first in human or first[0] == "@":
            continue
        rewrite = _sentence_rewrite(first, lexicons)
        if rewrite:
            inserted, replaced = rewrite
            out += surfaces[cursor:start]
            rewrites.append((len(out), len(inserted), replaced))
            out += inserted
            cursor = start + replaced
    if not rewrites:
        return surfaces, ()
    out += surfaces[cursor:]
    return out, tuple(rewrites)


def _tokens_with_offsets(text: str, surfaces, rewrites) -> list[Token]:
    """The tokens of ``surfaces``, the result of ``rewrites`` on
    ``tokenize(text)``, with character ranges into ``text``. Inserted
    tokens are zero-width, at the start of the sentence they open."""
    source = tokenize(text)
    out, cursor = [], 0  # cursor: the next token of ``source``
    for position, inserted, replaced in rewrites:
        kept = position - len(out)
        out += source[cursor:cursor + kept]
        cursor += kept
        at = source[cursor].start
        out += [Token(s, at, at) for s in surfaces[position:position + inserted]]
        cursor += replaced
    out += source[cursor:]
    return out


def extract_keyword_mentions(surfaces, kcs: KeyConceptSet) -> list[Mention]:
    """Case-insensitive exact-token keyword occurrences, in document order.

    Multi-token keywords match contiguous token runs; overlapping matches
    are resolved greedily left-to-right, longest keyword first.
    """
    if kcs.kind != "keyword":
        raise ConceptError(f"kcs {kcs.name!r} is not a keyword view")
    index = kcs._by_first_token
    mentions = []
    covered = 0  # tokens before this one belong to a match already
    for i in [i for i, s in enumerate(surfaces) if s in index]:
        if i < covered:
            continue
        for seq in index[surfaces[i]]:
            if tuple(surfaces[i : i + len(seq)]) == seq:
                covered = i + len(seq)
                mentions.append(Mention((i, covered), " ".join(seq)))
                break
    return mentions


def _masked_tokens_with_map(surfaces, replacements):
    """Apply (token_range, mask_surface) replacements; also return the map
    from old token index to new token index.

    Each replaced range collapses to a single mask token; ranges must not
    overlap.
    """
    replacements = sorted(replacements, key=lambda r: r[0])
    for ((_, e1), _), ((s2, _), _) in zip(replacements, replacements[1:]):
        if s2 < e1:
            raise ConceptError("overlapping mentions cannot be masked")
    out, index_map = [], []
    cursor = 0
    for (s, e), surface in replacements:
        if not (0 <= s < e <= len(surfaces)):
            raise ConceptError(f"mention range [{s}, {e}) outside token list")
        index_map += range(len(out), len(out) + s - cursor)
        out += surfaces[cursor:s]
        index_map += [len(out)] * (e - s)
        out.append(surface)
        cursor = e
    index_map += range(len(out), len(out) + len(surfaces) - cursor)
    out += surfaces[cursor:]
    return out, index_map


# ---------------------------------------------------------------------------
# Task presets and bag construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskPreset:
    name: str
    kcs_list: tuple[KeyConceptSet, ...]

    def __post_init__(self):
        if len(set(self.view_names)) != len(self.view_names):
            raise ConceptError(f"preset {self.name!r}: duplicate view names")

    @cached_property
    def has_human_view(self) -> bool:
        return any(k.kind == "human" for k in self.kcs_list)

    @cached_property
    def view_names(self) -> tuple[str, ...]:
        return tuple(k.name for k in self.kcs_list)


@dataclass(frozen=True)
class ProcessedDocument:
    """A document with its final token surfaces, per-view bags, and the
    fully masked surface list fed to context providers.

    ``surfaces`` are the lowercased tokens after the sentence-start
    rewrites, each recorded in ``rewrites`` as (position of its first
    inserted token, tokens inserted, tokens replaced); ``tokens`` adds
    their character ranges, computed when first read. ``bags`` follow the
    preset's view order, and each bag holds its instances' ranges within
    ``masked_tokens``.
    """

    document: Document
    surfaces: tuple[str, ...]
    rewrites: tuple[tuple[int, int, int], ...]
    bags: tuple[Bag, ...]
    masked_tokens: tuple[str, ...]

    @cached_property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(_tokens_with_offsets(self.document.text, self.surfaces,
                                          self.rewrites))


def view_occurrences(processed_docs, kcs_name: str):
    """One view's mention occurrences across ``processed_docs``, in
    document then bag order, and the bag of each document.

    An occurrence is ``(masked_tokens, masked_range, key)``: the document's
    masked token surfaces, the instance's [start, end) range within them,
    and ``key = (doc_id, kcs_name, i)`` for the bag's i-th instance, the
    record key of a precomputed vector file. Raises KeyError where a
    document has no bag of that name.
    """
    occurrences, bags = [], []
    for pdoc in processed_docs:
        for bag in pdoc.bags:
            if bag.kcs_name == kcs_name:
                break
        else:
            raise KeyError(kcs_name)
        tokens, doc_id = pdoc.masked_tokens, pdoc.document.id
        occurrences += [(tokens, r, (doc_id, kcs_name, i))
                        for i, r in enumerate(bag.masked_ranges)]
        bags.append(bag)
    return occurrences, bags


def _span_overlap(tokens, token_range, spans) -> bool:
    s, e = token_range
    char_start, char_end = tokens[s].start, tokens[e - 1].end
    return any(char_start < b and a < char_end for a, b in spans)


def instance_labels(kcs: KeyConceptSet, mentions, offsets, gold_label,
                    positive_spans, doc_id: str = "") -> list[str]:
    """Automatic instance labels from the document label.

    Negative documents mark every instance negative. In positive documents
    keyword instances are positive, and human instances are positive only
    where the annotated spans cover them. A positive document without span
    annotation leaves its human instances unlabeled (with a warning), since
    the affected mention is unknown. ``offsets()`` gives the document's
    tokens with character ranges; only that last comparison calls it.
    """
    if gold_label is None:
        return [UNLABELED] * len(mentions)
    if gold_label == NEGATIVE:
        return [NEGATIVE] * len(mentions)
    if kcs.kind == "keyword":
        return [POSITIVE] * len(mentions)
    if not positive_spans:
        if mentions:
            logger.warning(
                "positive document %r has no positive_human_spans; "
                "leaving %d human instances unlabeled", doc_id, len(mentions),
            )
        return [UNLABELED] * len(mentions)
    tokens = offsets()
    return [
        NEGATIVE if m.synthetic or not _span_overlap(tokens, m.token_range, positive_spans)
        else POSITIVE
        for m in mentions
    ]


def process_document(doc: Document, preset: TaskPreset, lexicons: Lexicons) -> ProcessedDocument:
    """Tokenize, synthesize, extract, label, and mask one document."""
    surfaces = token_surfaces(doc.text)
    rewrites = ()
    if preset.has_human_view:
        surfaces, rewrites = synthesize_document(surfaces, doc.text, lexicons)
    inserted = ({position + k for position, n, _ in rewrites for k in range(n)}
                if rewrites else ())

    view_mentions = [
        extract_human_mentions(surfaces, lexicons, synthetic=inserted)
        if kcs.kind == "human" else extract_keyword_mentions(surfaces, kcs)
        for kcs in preset.kcs_list
    ]

    def offsets():
        return _tokens_with_offsets(doc.text, surfaces, rewrites)

    instances = [
        tuple(zip(mentions, instance_labels(kcs, mentions, offsets, doc.gold_label,
                                            doc.positive_human_spans, doc_id=doc.id)))
        for kcs, mentions in zip(preset.kcs_list, view_mentions)
    ]

    replacements = [
        (m.token_range, kcs.mask_token)
        for kcs, mentions in zip(preset.kcs_list, view_mentions) if kcs.mask_token
        for m in mentions
    ]
    if len({s for (s, e), _ in replacements if e - s == 1}) == len(replacements):
        # one-token masks at distinct positions move no token
        masked_tokens = list(surfaces)
        for (s, _), mask_token in replacements:
            masked_tokens[s] = mask_token
        masked_ranges = [tuple(m.token_range for m in mentions)
                         for mentions in view_mentions]
    else:
        masked_tokens, index_map = _masked_tokens_with_map(surfaces, replacements)
        masked_ranges = [tuple((index_map[m.token_range[0]],
                                index_map[m.token_range[1] - 1] + 1) for m in mentions)
                         for mentions in view_mentions]
    return ProcessedDocument(
        document=doc,
        surfaces=tuple(surfaces),
        rewrites=rewrites,
        bags=tuple(Bag(kcs.name, pairs, ranges) for kcs, pairs, ranges
                   in zip(preset.kcs_list, instances, masked_ranges)),
        masked_tokens=tuple(masked_tokens),
    )
