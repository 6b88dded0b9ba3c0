"""String normalization + tokenization.

Re-implements (from observed behavior, not code) the reference's
normalization chain:

- ``simple_string_normalization``  — ConvertFileToTable.simpleStringNormalization
  (SJ/IO/ConvertFileToTable.java:1327-1353)
- ``clean_web_header``             — ConvertFileToTable.cleanWebHeader (:1355-1375)
- ``tokenize_string``              — StringNormalizer.tokenizeString
  (SJ/schemamatching/label/StringNormalizer.java:74-141): whitespace split →
  Lucene WordDelimiterFilter rules (split on non-alphanumerics, on
  lower→upper case change, on letter↔digit boundaries; keep word and number
  parts; strip English possessive "'s") → optional Porter stem → lowercase →
  Lucene English stopword removal → "$" token re-append.
- ``clear_string``                 — StringNormalizer.clearString (:44-58)
- ``clear_string_for_fastjoin``    — StringNormalizer.clearString4FastJoin (:60-72)
- ``remove_custom_stopwords``      — StringNormalizer.removeCustomStopwords (:143-158)
- ``get_human_header``             — CSV2HTMLconvertor.getHumanHeader (:284-304)

All functions are pure; module-level compiled regexes make them cheap enough
to call per-cell inside a vectorized wrapper.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import NULL_VALUE

# ---------------------------------------------------------------------------
# Java-style unescaping (commons-lang StringEscapeUtils.unescapeJava subset)
# ---------------------------------------------------------------------------

_JAVA_ESCAPE = re.compile(
    r"\\(u[0-9a-fA-F]{4}|[btnfr\"'\\/])"
)

_SIMPLE_ESCAPES = {
    "b": "\b", "t": "\t", "n": "\n", "f": "\f", "r": "\r",
    '"': '"', "'": "'", "\\": "\\", "/": "/",
}


def unescape_java(value: str) -> str:
    """Decode Java string escapes (\\uXXXX, \\n, \\t, ...); leave bad escapes as-is."""
    if "\\" not in value:
        return value

    def _sub(m: re.Match) -> str:
        g = m.group(1)
        if g[0] == "u":
            try:
                return chr(int(g[1:], 16))
            except ValueError:
                return m.group(0)
        return _SIMPLE_ESCAPES.get(g, m.group(0))

    return _JAVA_ESCAPE.sub(_sub, value)


# ---------------------------------------------------------------------------
# simpleStringNormalization / cleanWebHeader
# ---------------------------------------------------------------------------

_TAG_RE = re.compile(r"<.*>")          # greedy, same as Java replaceAll("<.*>", "")
_BRACKET_RE = re.compile(r"\(.*\)")    # greedy


def simple_string_normalization(value: str, remove_brackets: bool = False) -> str:
    """Clean a cell value.  Order of operations matters and is part of the
    byte-identical-per-url invariant (BASELINE.md): unescape → strip
    quotes/braces → '|'→space, ','→'' → drop newlines → nbsp variants→space →
    strip <tags> → optional (brackets) → empty→"null" → lowercase → trim."""
    try:
        value = unescape_java(value)
        # membership prechecks skip the no-op replaces — str.replace scans
        # the whole string either way, and most cells contain none of these
        if '"' in value:
            value = value.replace('"', "")
        if "|" in value:
            value = value.replace("|", " ")
        if "," in value:
            value = value.replace(",", "")
        if "{" in value:
            value = value.replace("{", "")
        if "}" in value:
            value = value.replace("}", "")
        if "\n" in value:
            value = value.replace("\n", "")
        if "nbsp" in value:
            value = value.replace("&nbsp;", " ")
            value = value.replace("&nbsp", " ")
            value = value.replace("nbsp", " ")
        if "<" in value:
            value = _TAG_RE.sub("", value)
        if remove_brackets and "(" in value:
            value = _BRACKET_RE.sub("", value)
        if value == "":
            value = NULL_VALUE
        value = value.lower().strip()
    except Exception:
        pass
    return value


def clean_web_header(name: str) -> str:
    """Header cleanup: nbsp variants, <tags>, '.', '$' removed; truncate at the
    first of '/', '\\', '|'; trim."""
    name = name.replace("&nbsp;", " ").replace("&nbsp", " ").replace("nbsp", " ")
    name = _TAG_RE.sub("", name)
    name = name.replace(".", "").replace("$", "")
    for sep in ("/", "\\", "|"):
        idx = name.find(sep)
        if idx >= 0:
            name = name[:idx]
    return name.strip()


# ---------------------------------------------------------------------------
# Word-delimiter tokenization (Lucene WordDelimiterFilter semantics with
# generateWordParts=1, generateNumberParts=1, catenateNumbers=0,
# splitOnCaseChange=1, splitOnNumerics=1, stemEnglishPossessive=1)
# ---------------------------------------------------------------------------

# Lucene's English stopword set (StandardAnalyzer / EnglishAnalyzer default).
LUCENE_STOPWORDS = frozenset(
    "a an and are as at be but by for if in into is it no not of on or such "
    "that the their then there these they this to was will with".split()
)

import regex as _uregex  # unicode-category support, matching Lucene's unicode awareness

_POSSESSIVE_RE = re.compile(r"['\u2019]s$")
_SUBWORD_RE = _uregex.compile(
    r"\p{N}+"                          # number runs
    r"|\p{Lu}+(?!\p{Ll})"              # acronym runs (caps not followed by lower)
    r"|\p{Lu}\p{Ll}*"                  # capitalized word part
    r"|[\p{Ll}\p{Lo}]+"                # lowercase / caseless-letter run
)


def word_delimiter_split(token: str) -> list[str]:
    """Split one whitespace token into sub-tokens on non-alphanumerics, case
    changes and letter↔digit boundaries; drop delimiters; strip possessive 's."""
    token = _POSSESSIVE_RE.sub("", token)
    return _SUBWORD_RE.findall(token)


def porter_stem(word: str) -> str:
    """Martin Porter's stemming algorithm (1980), standard implementation.

    Used when ``use_stemmer=True`` (reference: PorterStemFilter applied before
    lowercasing, StringNormalizer.java:113-116).  Only handles lowercase input
    meaningfully; callers pass tokens as-is for parity (uppercase tokens pass
    through mostly unchanged, as in Lucene).
    """
    w = word
    if len(w) <= 2:
        return w

    vowels = "aeiou"

    def is_cons(word: str, i: int) -> bool:
        ch = word[i]
        if ch in vowels:
            return False
        if ch == "y":
            return i == 0 or not is_cons(word, i - 1)
        return True

    def measure(stem: str) -> int:
        # number of VC sequences
        m = 0
        prev_c = None
        for i in range(len(stem)):
            c = is_cons(stem, i)
            if prev_c is not None and prev_c is False and c is True:
                m += 1
            prev_c = c
        return m

    def has_vowel(stem: str) -> bool:
        return any(not is_cons(stem, i) for i in range(len(stem)))

    def ends_double_cons(word: str) -> bool:
        return (
            len(word) >= 2
            and word[-1] == word[-2]
            and is_cons(word, len(word) - 1)
        )

    def cvc(word: str) -> bool:
        if len(word) < 3:
            return False
        return (
            is_cons(word, len(word) - 3)
            and not is_cons(word, len(word) - 2)
            and is_cons(word, len(word) - 1)
            and word[-1] not in "wxy"
        )

    # Step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    # Step 1b
    flag_1b = False
    if w.endswith("eed"):
        if measure(w[:-3]) > 0:
            w = w[:-1]
    elif w.endswith("ed"):
        if has_vowel(w[:-2]):
            w = w[:-2]
            flag_1b = True
    elif w.endswith("ing"):
        if has_vowel(w[:-3]):
            w = w[:-3]
            flag_1b = True
    if flag_1b:
        if w.endswith(("at", "bl", "iz")):
            w += "e"
        elif ends_double_cons(w) and w[-1] not in "lsz":
            w = w[:-1]
        elif measure(w) == 1 and cvc(w):
            w += "e"

    # Step 1c
    if w.endswith("y") and has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # Step 2
    step2 = [
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
        ("izer", "ize"), ("bli", "ble"), ("alli", "al"), ("entli", "ent"),
        ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
        ("logi", "log"),
    ]
    for suf, rep in step2:
        if w.endswith(suf):
            stem = w[: -len(suf)]
            if measure(stem) > 0:
                w = stem + rep
            break

    # Step 3
    step3 = [
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    ]
    for suf, rep in step3:
        if w.endswith(suf):
            stem = w[: -len(suf)]
            if measure(stem) > 0:
                w = stem + rep
            break

    # Step 4
    step4 = [
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ]
    for suf in step4:
        if w.endswith(suf):
            stem = w[: -len(suf)]
            if measure(stem) > 1:
                w = stem
            break
    else:
        if w.endswith("ion") and len(w) > 3 and w[-4] in "st" and measure(w[:-3]) > 1:
            w = w[:-3]

    # Step 5a
    if w.endswith("e"):
        stem = w[:-1]
        m = measure(stem)
        if m > 1 or (m == 1 and not cvc(stem)):
            w = stem
    # Step 5b
    if measure(w) > 1 and ends_double_cons(w) and w.endswith("l"):
        w = w[:-1]

    return w


def tokenize_string(
    value: str,
    remove_brackets: bool = False,
    use_stemmer: bool = False,
    custom_stopwords: frozenset[str] | None = None,
) -> list[str]:
    """Tokenize per StringNormalizer.tokenizeString semantics (see module doc)."""
    s = value.replace("&nbsp;", " ").replace("&nbsp", " ").replace("nbsp", " ")
    s = unescape_java(s)
    if remove_brackets:
        s = _BRACKET_RE.sub("", s)

    out: list[str] = []
    for ws_tok in s.split():
        for sub in word_delimiter_split(ws_tok):
            if use_stemmer:
                sub = porter_stem(sub)
            sub = sub.lower()
            if sub in LUCENE_STOPWORDS:
                continue
            if custom_stopwords and sub in custom_stopwords:
                continue
            out.append(sub)

    # "$" is meaningful (currency) but is a delimiter — re-append it as its
    # own token when present (StringNormalizer.java:137-140).
    if "$" in s and out and out[0] != s:
        out.append("$")
    return out


def clear_string(
    value: str, remove_brackets: bool = False, use_stemmer: bool = False
) -> str:
    """Normalize = tokenize then re-join with single spaces; empty → "null"."""
    try:
        joined = " ".join(tokenize_string(value, remove_brackets, use_stemmer))
        return joined if joined else NULL_VALUE
    except Exception:
        return value


_NON_BASIC_LATIN = re.compile(r"[^\u0000-\u007F]")


def clear_string_for_fastjoin(
    value: str, remove_brackets: bool = False, use_stemmer: bool = False
) -> str:
    """clear_string applied twice, strip non-Basic-Latin, truncate to 127 chars
    (pre-fuzzy-join key canonicalization)."""
    v = clear_string(value, remove_brackets, use_stemmer)
    v = clear_string(v, False, use_stemmer)
    v = _NON_BASIC_LATIN.sub("", v)
    return v[:127]


def remove_custom_stopwords(value: str, stopwords: list[str] | tuple[str, ...]) -> str:
    """Literal substring removal of each stopword, then collapse double spaces."""
    if not stopwords:
        return value
    for stop in stopwords:
        value = value.replace(stop, "")
    return value.replace("  ", " ")


def get_human_header(header: str) -> str:
    """Collapse provenance-merged headers ``h1||h2||…`` to the most frequent
    part; strip URI prefixes up to the last '#'."""
    if "|" in header:
        parts = header.split("||")
        counts = Counter(parts)
        # highest count wins; ties broken by first occurrence (stable order)
        header = max(counts, key=lambda p: counts[p])
    if "#" in header:
        header = header[header.rindex("#") + 1:]
    return header


_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


def decamel(header: str) -> str:
    """De-camel-case a header for predicate naming: 'areaTotal' → 'area Total'."""
    return _CAMEL_RE.sub(" ", header)


def capitalize_words(value: str) -> str:
    """commons-lang WordUtils.capitalize: uppercase the first letter of every
    whitespace-delimited word, leave the rest of each word untouched."""
    out = []
    cap_next = True
    for ch in value:
        if ch.isspace():
            cap_next = True
            out.append(ch)
        elif cap_next:
            out.append(ch.upper())
            cap_next = False
        else:
            out.append(ch)
    return "".join(out)


# the ASCII characters ``str.isspace`` accepts: \t \n \v \f \r, \x1c-\x1f
# and the space
_ASCII_SPACE = np.zeros(256, dtype=bool)
_ASCII_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


def capitalize_words_array(values):
    """:func:`capitalize_words` over an Arrow string array (or chunked array)
    in one pass.  ASCII values are a numpy pass over the data buffer: a byte
    ``a``-``z`` is uppercased when it is the first byte of its value or
    follows an ASCII whitespace byte.  Non-ASCII values go through
    :func:`capitalize_words`, which stays the definition (``'ß'.upper()`` is
    ``'SS'``, and ``str.isspace`` accepts non-ASCII spaces)."""
    if isinstance(values, pa.ChunkedArray):
        return pa.chunked_array(
            [capitalize_words_array(c) for c in values.chunks], values.type)
    if values.offset:
        # a sliced array: its buffers re-based so the offsets index them
        values = pa.concat_arrays([values])
    validity, offsets_buf, data_buf = values.buffers()
    n = len(values)
    offsets = np.frombuffer(
        offsets_buf, count=n + 1,
        dtype=np.int64 if pa.types.is_large_string(values.type) else np.int32)
    end = int(offsets[-1]) if n else 0
    if end == 0:
        return values
    data = np.frombuffer(data_buf, dtype=np.uint8, count=end).copy()
    word_start = np.zeros(end, dtype=bool)
    word_start[offsets[:-1][offsets[:-1] < end]] = True
    word_start[1:] |= _ASCII_SPACE[data[:-1]]
    data[word_start & (data >= 0x61) & (data <= 0x7A)] -= 0x20
    out = pa.Array.from_buffers(values.type, n,
                                [validity, offsets_buf, pa.py_buffer(data)],
                                values.null_count)
    non_ascii = pc.invert(pc.fill_null(pc.string_is_ascii(values), True))
    if pc.any(non_ascii).as_py():
        out = pc.replace_with_mask(out, non_ascii, pa.array(
            [capitalize_words(v) for v in values.filter(non_ascii).to_pylist()],
            values.type))
    return out
