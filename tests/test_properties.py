"""Property tests (SURVEY §5 item 4): normalization idempotence, triple-key
determinism, sketch stability."""

from __future__ import annotations

import unicodedata

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mannheimsearchjoinsengine_ray.functions import hashing, normalize, parsers
from mannheimsearchjoinsengine_ray.sources import pages as P
from mannheimsearchjoinsengine_ray.stages import triples as T

text_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200)


@settings(max_examples=300, deadline=None)
@given(text_strategy)
def test_simple_normalization_reaches_fixpoint(s):
    # NOT single-step idempotent by reference design: the empty→"null"
    # substitution happens BEFORE the final trim (ConvertFileToTable.java:
    # 1345-1349), so whitespace-only input maps ' '→''→'null'.  When the
    # first application leaves no Java escape to decode, the chain must
    # stabilize by the second application.  An escape that survives it
    # (lowercasing makes the invalid '\R' the valid '\r'; the nested
    # '\u005cu0041' decodes to '\u0041', then to 'a') is decoded one
    # layer per application, as in the reference — see the two tests below.
    once = normalize.simple_string_normalization(s)
    assume(normalize.unescape_java(once) == once)
    twice = normalize.simple_string_normalization(once)
    assert normalize.simple_string_normalization(twice) == twice


def test_simple_normalization_decodes_case_made_escape_next_pass():
    chain = ["\\R"]
    for _ in range(4):
        chain.append(normalize.simple_string_normalization(chain[-1]))
    # '\R' is no escape, so it survives decoding; lowercasing turns it into
    # '\r', which the next pass decodes to a carriage return and trims
    assert chain == ["\\R", "\\r", "", "null", "null"]


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="\\uU005cCrRnN0041 x", max_size=40))
def test_simple_normalization_fixpoint_with_escapes(s):
    # each pass that still decodes an escape shortens the value (an escape
    # is 2-6 characters, its decoding one), so the chain stabilizes within
    # len(s) + 3 applications
    value = s
    for _ in range(len(s) + 3):
        nxt = normalize.simple_string_normalization(value)
        if nxt == value:
            return
        value = nxt
    pytest.fail(f"no fixpoint after {len(s) + 3} applications: {s!r}")


@settings(max_examples=300, deadline=None)
@given(text_strategy)
def test_clear_string_idempotent(s):
    # NOT idempotent for caseless uppercase letters (category Lu with no
    # lowercase mapping, e.g. mathematical alphanumerics U+1D71C): pass 1
    # lowercases their neighbors without splitting, creating a NEW camel
    # boundary ('a𝜜') that pass 2 then splits — same behavior as the
    # reference's WordDelimiter+toLowerCase chain, so the port keeps it
    assume(not any(c.lower() == c and unicodedata.category(c) == "Lu"
                   for c in s))
    once = normalize.clear_string(s)
    twice = normalize.clear_string(once)
    assert twice == once


@settings(max_examples=200, deadline=None)
@given(text_strategy)
def test_tokenize_never_raises_and_lowercase(s):
    toks = normalize.tokenize_string(s)
    for t in toks:
        assert t == t.lower()
        assert t not in normalize.LUCENE_STOPWORDS


@settings(max_examples=200, deadline=None)
@given(text_strategy)
def test_fastjoin_key_bounded_ascii(s):
    v = normalize.clear_string_for_fastjoin(s)
    assert len(v) <= 127
    assert all(ord(c) < 128 for c in v)


@settings(max_examples=300, deadline=None)
@given(text_strategy)
def test_parsers_never_raise(s):
    parsers.parse_numeric(s)
    parsers.parse_date(s)
    parsers.parse_url(s)
    parsers.parse_geo_coordinate(s)
    parsers.check_if_list(s)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abcdefgh ", min_size=1, max_size=60))
def test_subject_uri_deterministic_and_space_free(s):
    norm = normalize.simple_string_normalization(s)
    if norm and norm != "null":
        u1 = T.subject_uri(norm)
        u2 = T.subject_uri(norm)
        assert u1 == u2
        assert " " not in u1
        assert u1.startswith(T.NS)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_page_generation_deterministic(pid):
    a = P.make_page_spec(pid)
    b = P.make_page_spec(pid)
    assert P.render_html(a) == P.render_html(b)
    assert P.expected_text(a) == P.expected_text(b)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=30))
def test_minhash_stable_and_permutation_invariant(tokens):
    mh = hashing.MinHasher(num_perm=16)
    h1 = mh.signature(hashing.hash64(tokens))
    h2 = mh.signature(hashing.hash64(list(reversed(tokens))))
    assert (h1 == h2).all()  # set semantics: order must not matter


# --- round-2 components: codecs, bloom, units ---

@given(st.integers(1, 24), st.integers(1, 24), st.sampled_from([1, 3, 4]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_png_roundtrip_any_shape(w, h, ch, seed):
    import numpy as np

    from mannheimsearchjoinsengine_ray.functions import codecs

    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w, ch) if ch > 1 else (h, w),
                       dtype=np.uint8)
    assert np.array_equal(codecs.decode_png(codecs.encode_png(img)), img)


@given(st.integers(1, 2000), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_wav_roundtrip_tolerance(n, seed):
    import numpy as np

    from mannheimsearchjoinsengine_ray.functions import codecs

    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n).astype(np.float32)
    y, rate = codecs.decode_wav(codecs.encode_wav(x, 8000))
    assert rate == 8000 and y.shape == (n, 1)
    assert np.abs(y[:, 0] - x).max() < 2e-4  # 16-bit quantization bound


@given(st.lists(st.integers(0, 10**12), min_size=0, max_size=500))
@settings(max_examples=25, deadline=None)
def test_bloom_never_false_negative(keys):
    import numpy as np

    from mannheimsearchjoinsengine_ray.functions.hashing import (
        bloom_contains,
        bloom_partial,
    )

    arr = np.array(keys, dtype=np.int64)
    half = len(arr) // 2
    bloom = bloom_partial(arr[:half], num_bits=1 << 16) | \
        bloom_partial(arr[half:], num_bits=1 << 16)
    assert bloom_contains(bloom, arr).all() if len(arr) else True


@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False),
       st.sampled_from(["psi", "hz", "kv", "g/cc", "mpg", "kgf", "nm",
                        "km", "kg", "sqkm"]))
@settings(max_examples=60, deadline=None)
def test_unit_parse_scales_linearly(value, abbr):
    from mannheimsearchjoinsengine_ray.functions.units import parse_unit

    one = parse_unit(f"1{abbr}")
    assert one is not None
    got = parse_unit(f"{abs(value):.4f}{abbr}")
    assert got is not None
    assert got.base_unit == one.base_unit
    assert got.base_value == pytest.approx(abs(round(value, 4)) *
                                           one.base_value, rel=1e-9, abs=1e-9)


@given(
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd", "Zs"),
            whitelist_characters="-.,\t/°$",
        ),
        max_size=24,
    ),
    st.one_of(
        st.none(),
        st.sampled_from(["sq km", "km2", "sq-km", "mi", "kg", "x", "5km",
                         "deg c", " m ", "m\t", ""]),
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Nd", "Zs"),
                whitelist_characters="-.\t",
            ),
            max_size=10,
        ),
    ),
)
@settings(max_examples=400, deadline=None)
def test_parse_unit_hint_fast_path_equals_combined_parse(text, hint):
    """parse_unit's residue+hint_key dict probe must be indistinguishable
    from re-parsing ``text + " " + hint`` (the pre-round-5 implementation)."""
    from mannheimsearchjoinsengine_ray.functions import units

    got = units.parse_unit(text, header_hint=hint)
    want = None
    if text:  # empty text short-circuits before any hint retry
        want = units._parse_unit_text(text)
        if want is None and hint:
            want = units._parse_unit_text(text + " " + hint)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.subunit is want.subunit
        assert got.value == want.value
        assert got.base_value == want.base_value
