"""Built-in task presets and the plain-text preset file format.

Each preset names the concept views of one detection task: personal health
mentions pair the human view with a disease keyword view, crisis reports
pair it with incident keywords, and adverse drug reactions pair it with the
drug-name list. Custom tasks load from an INI-style file with one section
per view.
"""

from __future__ import annotations

import configparser

from .concepts import ConceptError, KeyConceptSet, TaskPreset, lexicon_dir, load_wordlist

HUM_TOK = "HUM_TOK"
DRUG_TOK = "DRUG_TOK"

_DISEASE_KEYWORDS = {
    "phm-flu": ("flu",),
    "phm-cancer": ("cancer",),
    "phm-alzheimers": ("alzheimer's", "alzheimers"),
    "phm-heart-attack": ("heart attack",),
    "phm-parkinsons": ("parkinson's", "parkinsons"),
    "phm-depression": ("depression",),
    "phm-stroke": ("stroke",),
}


def _human_kcs() -> KeyConceptSet:
    return KeyConceptSet(name="human", kind="human", mask_token=HUM_TOK)


def _phm_preset(name: str) -> TaskPreset:
    disease = KeyConceptSet(name="disease", kind="keyword",
                            keywords=_DISEASE_KEYWORDS[name])
    return TaskPreset(name=name, kcs_list=(_human_kcs(), disease))


def _crisis_preset(name: str) -> TaskPreset:
    crisis = KeyConceptSet(name="crisis", kind="keyword",
                           keywords=("earthquake", "quake"))
    return TaskPreset(name=name, kcs_list=(_human_kcs(), crisis))


def _adr_preset(name: str) -> TaskPreset:
    drugs = load_wordlist(lexicon_dir() / "drug_names.txt")
    drug = KeyConceptSet(name="drug", kind="keyword", keywords=drugs,
                         mask_token=DRUG_TOK)
    return TaskPreset(name=name, kcs_list=(_human_kcs(), drug))


def preset_names() -> list[str]:
    return sorted(list(_DISEASE_KEYWORDS) + ["crisis-earthquake", "adr"])


def task_preset(name: str) -> TaskPreset:
    """Look up a built-in preset by task name."""
    if name in _DISEASE_KEYWORDS:
        return _phm_preset(name)
    if name == "crisis-earthquake":
        return _crisis_preset(name)
    if name == "adr":
        return _adr_preset(name)
    raise ConceptError(
        f"unknown task {name!r}; available presets: {', '.join(preset_names())}"
    )


def load_preset_file(path, name: str | None = None) -> TaskPreset:
    """Read a preset from an INI file: one section per view.

    Keys: kind (human|keyword), keywords (comma-separated) or
    keywords_file (lexicon-format file), mask_token (optional). Any other
    key, or both keyword keys in one section, is an error.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConceptError(f"preset file not found: {path}")
    views = []
    for section in parser.sections():
        opts = parser[section]
        where = f"preset file {path}, [{section}]"
        unknown = sorted(set(opts) - {"kind", "keywords", "keywords_file", "mask_token"})
        if unknown:
            raise ConceptError(f"{where}: unknown key {unknown[0]!r}")
        if "keywords" in opts and "keywords_file" in opts:
            raise ConceptError(f"{where}: give keywords or keywords_file, not both")
        kind = opts.get("kind", "keyword")
        keywords: tuple[str, ...] = ()
        if "keywords_file" in opts:
            keywords = load_wordlist(opts["keywords_file"])
        elif "keywords" in opts:
            keywords = tuple(
                k.strip() for k in opts["keywords"].split(",") if k.strip()
            )
        views.append(
            KeyConceptSet(
                name=section,
                kind=kind,
                keywords=keywords,
                mask_token=opts.get("mask_token") or None,
            )
        )
    if not views:
        raise ConceptError(f"preset file {path} declares no views")
    return TaskPreset(name=name or str(path), kcs_list=tuple(views))
