"""Built-in task presets and the plain-text preset file format.

Each preset names the concept views of one detection task: personal health
mentions pair the human view with a disease keyword view, crisis reports
pair it with incident keywords, and adverse drug reactions pair it with the
drug-name list. Custom tasks load from an INI-style file with one section
per view; ``task_preset`` takes a built-in name or such a file's path.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .concepts import ConceptError, KeyConceptSet, TaskPreset, lexicon_dir, load_wordlist

HUM_TOK = "HUM_TOK"
DRUG_TOK = "DRUG_TOK"

# task -> (its keyword view's name, keywords, mask token); each built-in
# pairs that view with the human view. A keywords string names a lexicon
# file, read from lexicon_dir() when the preset is built.
_BUILTINS = {
    "phm-flu": ("disease", ("flu",), None),
    "phm-cancer": ("disease", ("cancer",), None),
    "phm-alzheimers": ("disease", ("alzheimer's", "alzheimers"), None),
    "phm-heart-attack": ("disease", ("heart attack",), None),
    "phm-parkinsons": ("disease", ("parkinson's", "parkinsons"), None),
    "phm-depression": ("disease", ("depression",), None),
    "phm-stroke": ("disease", ("stroke",), None),
    "crisis-earthquake": ("crisis", ("earthquake", "quake"), None),
    "adr": ("drug", "drug_names.txt", DRUG_TOK),
}


def preset_names() -> list[str]:
    return sorted(_BUILTINS)


def task_preset(task) -> TaskPreset:
    """A built-in preset by task name, or the preset file at path ``task``."""
    if task in _BUILTINS:
        view, keywords, mask_token = _BUILTINS[task]
        if isinstance(keywords, str):
            keywords = load_wordlist(lexicon_dir() / keywords)
        return TaskPreset(name=task, kcs_list=(
            KeyConceptSet(name="human", kind="human", mask_token=HUM_TOK),
            KeyConceptSet(name=view, kind="keyword", keywords=keywords,
                          mask_token=mask_token)))
    if Path(task).is_file():
        return load_preset_file(task, name=task)
    raise ConceptError(
        f"unknown task {task!r}; available presets: {', '.join(preset_names())} "
        "(or pass a preset file path)"
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
