"""Sentence segmentation, whitespace tokenization and a small rule-based lemmatizer.

Positions only need to be stable and monotone; no attempt is made at
linguistically perfect segmentation. Every sentence cut follows whitespace,
so no word crosses one: a caller may scan the words of a whole text once
and cut them into sentences by offset. lemmatize depends on the surface
alone, so a caller may keep the lemma of each surface it has seen.
"""
from __future__ import annotations

import re

# sentence boundary: terminator, optional closing quotes/brackets, whitespace,
# then a capital letter or digit; blank lines always separate sentences
_BOUNDARY = re.compile(r'[.?!]["\')\]]*\s+(?=["\'(\[]?[A-Z0-9])')
_BLANK_LINE = re.compile(r"\n\s*\n")
_WORD = re.compile(r"\S+")
_EDGE_PUNCT = re.compile(r"^\W+|\W+$")

_VOWELS = set("aeiou")


def lemmatize(surface: str) -> str:
    """Strip common English inflection suffixes from a lowercased token."""
    word = _EDGE_PUNCT.sub("", surface.lower())
    if not word:
        return surface.lower()
    if word.endswith("ing") and len(word) > 5:
        stem = word[:-3]
        return _undouble(stem)
    if word.endswith("ed") and len(word) > 4:
        stem = word[:-2]
        return _undouble(stem)
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith(("ses", "xes", "zes", "ches", "shes")) and len(word) > 4:
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss") and len(word) > 3:
        return word[:-1]
    return word


def _undouble(stem: str) -> str:
    if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] not in _VOWELS:
        return stem[:-1]
    return stem


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """Return (start, end) character ranges of sentences in document order."""
    cuts = {0, len(text)}
    for match in _BOUNDARY.finditer(text):
        cuts.add(match.end())
    for match in _BLANK_LINE.finditer(text):
        cuts.add(match.end())
    ordered = sorted(cuts)
    spans = []
    for start, end in zip(ordered, ordered[1:]):
        if text[start:end].strip():
            spans.append((start, end))
    return spans


def word_spans(text: str) -> list[tuple[int, int]]:
    """Return (start, end) ranges of the whitespace-delimited words of text."""
    return [m.span() for m in _WORD.finditer(text)]
