"""Value parsers: numeric, date, boolean, URL, geo-coordinate, list.

Re-implements (behaviorally) the reference's parsers:

- ``parse_numeric``        — NumericParser.parseNumeric (SJ/parsers/NumericParser.java:5-28):
  ``Double.parseDouble`` OR digit-ratio heuristic (#digits ≥ 1.5 × #non-space-non-digit).
- ``parse_date`` / ``determine_date_format`` — DateUtil (SJ/parsers/DateUtil.java:43-125,
  179-210, 277): ~50 regex→format rules; a bare ``yyyy`` IS a date; lenient
  rollover for numeric formats (Java SimpleDateFormat default leniency).
- ``parse_boolean_strict`` — the guesser's ``Boolean.parseBoolean`` check
  (ColumnTypeGuesser.java:83): true only for "true" (case-insensitive).
- ``parse_boolean_regex``  — BooleanParser.parseBoolean (yes|true|1|no|false|0).
- ``parse_url``            — URLParser.parseURL (no-space + http/www prefix or full URL regex).
- ``parse_geo_coordinate`` — GeoCoordinateParser simple regex.
- ``check_if_list``        — ConvertFileToTable.checkIfList ``^\\{.+\\|.+\\}$``.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta
from functools import lru_cache

# ---------------------------------------------------------------------------
# numeric
# ---------------------------------------------------------------------------

def parse_numeric(text: str) -> bool:
    try:
        float(text)
        return True
    except (ValueError, TypeError):
        pass
    n_digits = 0
    n_chars = 0
    for ch in text:
        if ch.isdigit():
            n_digits += 1
        elif not ch.isspace():
            n_chars += 1
    return n_digits >= 1.5 * n_chars and n_digits > 0


def to_float(text: str) -> float | None:
    """Best-effort numeric extraction for values accepted by parse_numeric:
    plain float, else strip everything but digits/sign/dot (handles
    '8 900 299'-style grouping)."""
    try:
        return float(text)
    except (ValueError, TypeError):
        pass
    cleaned = re.sub(r"[^0-9+\-.]", "", text)
    # collapse multiple dots: keep the last as decimal separator
    if cleaned.count(".") > 1:
        parts = cleaned.split(".")
        cleaned = "".join(parts[:-1]) + "." + parts[-1]
    try:
        return float(cleaned)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# dates — regex → format table in reference order (later duplicate keys
# overwrite in place, matching the single-winner behavior of the Java map)
# ---------------------------------------------------------------------------

_DATE_FORMAT_REGEXPS: dict[str, str] = {
    r"^\d{8}$": "yyyyMMdd",
    r"^\d{1,2}\.\d{1,2}\.\d{4}$": "dd.MM.yyyy",
    r"^\d{1,2}-\d{1,2}-\d{4}$": "dd-MM-yyyy",
    r"^\d{1,2}/\d{1,2}/\d{4}$": "MM/dd/yyyy",  # duplicate key in reference; MM/dd wins
    r"^\d{1,2}\.\d{1,2}\.\d{2}$": "dd.MM.yy",
    r"^\d{1,2}-\d{1,2}-\d{2}$": "dd-MM-yy",
    r"^\d{1,2}/\d{1,2}/\d{2}$": "dd/MM/yy",
    r"^\d{1,2}\.\d{4}$": "MM.yyyy",
    r"^\d{1,2}-\d{4}$": "MM-yyyy",
    r"^\d{1,2}/\d{4}$": "MM/yyyy",
    r"^\d{1,2}\.\d{2}$": "MM.yy",
    r"^\d{1,2}-\d{2}$": "MM-yy",
    r"^\d{1,2}/\d{2}$": "MM/yy",
    r"^\d{4}-\d{1,2}-\d{1,2}$": "yyyy-MM-dd",
    r"^\d{4}/\d{1,2}/\d{1,2}$": "yyyy/MM/dd",
    r"^\d{1,2}\s[a-z]{3}\s\d{4}$": "dd MMM yyyy",
    r"^\d{1,2}\s[a-z]{4,}\s\d{4}$": "dd MMMM yyyy",
    r"^[a-z]{4,}\s\d{1,2}\s\d{4}$": "MMMM dd yyyy",
    r"^\d{1,2}-[a-z]{4,}-\d{4}$": "dd-MMMM-yyyy",
    r"^\d{1,2}\.[a-z]{4,}\.\d{4}$": "dd.MMMM.yyyy",
    r"^\d{1,2}\s[a-z]{4,}$": "dd MMMM",
    r"^[a-z]{4,}\s\d{1,2}$": "MMMM dd",
    r"^\d{1,2}\s[a-z]{2,}$": "dd MMMM",
    r"^\d{1,2}-[a-z]{2,}$": "dd-MMMM",
    r"^\d{1,2}\s[a-z]{2,}\s\d{4}$": "dd MMMM yyyy",
    r"^\d{1,2}/[a-z]{2,}/\d{4}$": "dd/MMMM/yyyy",
    r"^\d{1,2}-[a-z]{2,}-\d{4}$": "dd-MMMM-yyyy",
    r"^\d{1,2}\.[a-z]{2,}\.\d{4}$": "dd.MMMM.yyyy",
    r"^\d{1,2}\s[a-z]{2,}\s\d{2}$": "dd MMMM yy",
    r"^\d{1,2}/[a-z]{2,}/\d{2}$": "dd/MMMM/yy",
    r"^\d{1,2}-[a-z]{2,}-\d{2}$": "dd-MMMM-yy",
    r"^\d{1,2}\.[a-z]{2,}\.\d{2}$": "dd.MMMM.yy",
    r"^\d{12}$": "yyyyMMddHHmm",
    r"^\d{8}\s\d{4}$": "yyyyMMdd HHmm",
    r"^\d{1,2}-\d{1,2}-\d{4}\s\d{1,2}:\d{2}$": "dd-MM-yyyy HH:mm",
    r"^\d{4}-\d{1,2}-\d{1,2}\s\d{1,2}:\d{2}$": "yyyy-MM-dd HH:mm",
    r"^\d{1,2}/\d{1,2}/\d{4}\s\d{1,2}:\d{2}$": "MM/dd/yyyy HH:mm",
    r"^\d{4}/\d{1,2}/\d{1,2}\s\d{1,2}:\d{2}$": "yyyy/MM/dd HH:mm",
    r"^\d{1,2}\s[a-z]{3}\s\d{4}\s\d{1,2}:\d{2}$": "dd MMM yyyy HH:mm",
    r"^\d{1,2}\s[a-z]{4,}\s\d{4}\s\d{1,2}:\d{2}$": "dd MMMM yyyy HH:mm",
    r"^\d{14}$": "yyyyMMddHHmmss",
    r"^\d{8}\s\d{6}$": "yyyyMMdd HHmmss",
    r"^\d{1,2}-\d{1,2}-\d{4}\s\d{1,2}:\d{2}:\d{2}$": "dd-MM-yyyy HH:mm:ss",
    r"^\d{4}-\d{1,2}-\d{1,2}\s\d{1,2}:\d{2}:\d{2}$": "yyyy-MM-dd HH:mm:ss",
    r"^\d{1,2}/\d{1,2}/\d{4}\s\d{1,2}:\d{2}:\d{2}$": "MM/dd/yyyy HH:mm:ss",
    r"^\d{4}/\d{1,2}/\d{1,2}\s\d{1,2}:\d{2}:\d{2}$": "yyyy/MM/dd HH:mm:ss",
    r"^\d{1,2}\s[a-z]{3}\s\d{4}\s\d{1,2}:\d{2}:\d{2}$": "dd MMM yyyy HH:mm:ss",
    r"^\d{1,2}\s[a-z]{4,}\s\d{4}\s\d{1,2}:\d{2}:\d{2}$": "dd MMMM yyyy HH:mm:ss",
    r"^\d{1,2}\s[a-z]{4,}\s\d{4}\s\d{1,2}:\d{2}:\d{2}\.\d{6}$": "dd MMMM yyyy HH:mm:ss.SSSSSS",
    r"^\d{1,2}\s\d{2}\s\d{4}\s\d{1,2}:\d{2}:\d{2}\.\d{6}$": "dd MM yyyy HH:mm:ss.SSSSSS",
    r"^\d{4}\s\d{2}\s\d{1,2}\s\d{1,2}:\d{2}:\d{2}\.\d{6}$": "yyyy MM dd HH:mm:ss.SSSSSS",
    r"^\d{4}-\d{2}-\d{1,2}\s\d{1,2}:\d{2}:\d{2}\.\d{6}$": "yyyy-MM-dd HH:mm:ss.SSSSSS",
    r"^\d{1,2}\s[a-z]{4,}\s\d{4}\s\d{1,2}:\d{2}:\d{2}\.\d{2}$": "dd MMMM yyyy HH:mm:ss.SS",
    r"^\d{4}-\d{2}-\d{1,2}T\d{1,2}:\d{2}:\d{2}\+\d{2}:\d{2}$": "yyyy-MM-dd'T'HH:mm:ssZZZ",
    r"^\d{4}$": "yyyy",
}

_COMPILED_DATE_REGEXPS = [(re.compile(rx), fmt) for rx, fmt in _DATE_FORMAT_REGEXPS.items()]

# One combined alternation: group i ↔ format i (none of the per-format
# patterns contain groups of their own).  A single C-level scan replaces up
# to 57 fullmatch calls per value — the type-guess hot path.
_FORMATS_BY_GROUP = list(_DATE_FORMAT_REGEXPS.values())
_COMBINED_DATE_RE = re.compile(
    "|".join(f"({rx[1:-1]})" for rx in _DATE_FORMAT_REGEXPS)  # strip ^...$
)
_HAS_DIGIT_RE = re.compile(r"\d")

_MONTHS = {
    m.lower(): i + 1
    for i, m in enumerate(
        ["January", "February", "March", "April", "May", "June", "July",
         "August", "September", "October", "November", "December"]
    )
}
_MONTHS_ABBR = {m[:3]: v for m, v in _MONTHS.items()}

_FMT_TOKEN_RE = re.compile(r"yyyy|yy|MMMM|MMM|MM|dd|HH|mm|ss|SSSSSS|SS|'T'|ZZZ|.")


def determine_date_format(value: str) -> str | None:
    # every date format contains digits and fits in ~35 chars — cheap rejects
    if len(value) > 35 or not _HAS_DIGIT_RE.search(value):
        return None
    low = value.lower()
    m = _COMBINED_DATE_RE.fullmatch(low)
    if m is None:
        return None
    # first (in insertion order) matching alternative wins — identical to the
    # sequential scan over _COMPILED_DATE_REGEXPS
    for gi in range(1, len(_FORMATS_BY_GROUP) + 1):
        if m.group(gi) is not None:
            return _FORMATS_BY_GROUP[gi - 1]
    return None


@lru_cache(maxsize=None)
def _compiled_format(fmt: str) -> tuple[re.Pattern, tuple[str, ...]]:
    """Format-string → (compiled capture regex, field names).  Cached: the
    format table is ~50 entries, and rebuilding the pattern per parsed value
    was ~20 µs/call of pure waste in the extract hot path."""
    fields: list[str] = []
    pattern = []
    for tok in _FMT_TOKEN_RE.findall(fmt):
        if tok in ("yyyy",):
            pattern.append(r"(\d{4})"); fields.append("year")
        elif tok == "yy":
            pattern.append(r"(\d{2})"); fields.append("year2")
        elif tok == "MMMM":
            pattern.append(r"([A-Za-z]{2,})"); fields.append("month_name")
        elif tok == "MMM":
            pattern.append(r"([A-Za-z]{3})"); fields.append("month_abbr")
        elif tok == "MM":
            pattern.append(r"(\d{1,2})"); fields.append("month")
        elif tok == "dd":
            pattern.append(r"(\d{1,2})"); fields.append("day")
        elif tok == "HH":
            pattern.append(r"(\d{1,2})"); fields.append("hour")
        elif tok == "mm":
            pattern.append(r"(\d{1,2})"); fields.append("minute")
        elif tok == "ss":
            pattern.append(r"(\d{1,2})"); fields.append("second")
        elif tok == "SSSSSS":
            pattern.append(r"(\d{6})"); fields.append("micro")
        elif tok == "SS":
            pattern.append(r"(\d{2})"); fields.append("centi")
        elif tok == "'T'":
            pattern.append("T")
        elif tok == "ZZZ":
            pattern.append(r"([+\-]\d{2}:\d{2})"); fields.append("tz")
        else:
            pattern.append(re.escape(tok))
    return re.compile("".join(pattern)), tuple(fields)


def _parse_with_format(value: str, fmt: str) -> datetime | None:
    """Parse ``value`` with a Java-style format, emulating SimpleDateFormat's
    default leniency (out-of-range month/day roll over)."""
    rx, fields = _compiled_format(fmt)
    m = rx.fullmatch(value)
    if not m:
        return None
    vals = dict(zip(fields, m.groups()))

    year = 1970
    if "year" in vals:
        year = int(vals["year"])
    elif "year2" in vals:
        y = int(vals["year2"])
        year = 2000 + y if y < 69 else 1900 + y
    month = 1
    if "month" in vals:
        month = int(vals["month"])
    elif "month_name" in vals:
        month = _MONTHS.get(vals["month_name"].lower(), 0)
        if month == 0:
            return None
    elif "month_abbr" in vals:
        month = _MONTHS_ABBR.get(vals["month_abbr"].lower(), 0)
        if month == 0:
            return None
    day = int(vals.get("day", 1))
    hour = int(vals.get("hour", 0))
    minute = int(vals.get("minute", 0))
    second = int(vals.get("second", 0))
    micro = int(vals.get("micro", 0)) + int(vals.get("centi", 0)) * 10000

    if not (1 <= year <= 9999):
        return None
    # lenient rollover: month 0/45, day 0/45 etc. roll like SimpleDateFormat
    try:
        base = datetime(year, 1, 1)
        extra_years, month_idx = divmod(month - 1, 12)
        base = base.replace(year=year + extra_years, month=month_idx + 1)
        return base + timedelta(
            days=day - 1, hours=hour, minutes=minute, seconds=second,
            microseconds=micro,
        )
    except (ValueError, OverflowError):
        return None


def parse_date(value: str) -> datetime | None:
    """DateUtil.parse: determine format from the regex table, then parse
    leniently.  Returns None when the value is not date-shaped."""
    fmt = determine_date_format(value)
    if fmt is None:
        return None
    return _parse_with_format(value, fmt)


def elapsed_days(d1: datetime, d2: datetime) -> int:
    """CalendarUtil.elapsedDays: whole days between two dates."""
    return abs((d2 - d1).days)


# ---------------------------------------------------------------------------
# boolean / URL / coordinate / list
# ---------------------------------------------------------------------------

_BOOL_REGEX = re.compile(r"(yes|true|1|no|false|0)")


def parse_boolean_strict(text: str) -> bool:
    """Java Boolean.parseBoolean: true iff equalsIgnoreCase("true").  This is
    what the type guesser uses — 'false' guesses as string, by design."""
    return text.lower() == "true"


def parse_boolean_regex(text: str) -> bool:
    return _BOOL_REGEX.fullmatch(text.lower()) is not None


_URL_REGEX = re.compile(
    r"^((?:(?:https?|ftp)://)|(www\.))"
    r"(?:\S+(?::\S*)?@)?"
    r"(?:"
    r"(?:[1-9]\d?|1\d\d|2[01]\d|22[0-3])"
    r"(?:\.(?:1?\d{1,2}|2[0-4]\d|25[0-5])){2}"
    r"(?:\.(?:[1-9]\d?|1\d\d|2[0-4]\d|25[0-4]))"
    r"|"
    r"(?:(?:[a-z0-9]+-?)*[a-z0-9]+)"
    r"(?:\.(?:[a-z0-9]+-?)*[a-z0-9]+)*"
    r"(?:\.(?:[a-z]{2,}))"
    r")"
    r"(?::\d{2,5})?"
    r"(?:/[^\s]*)?$"
)


def parse_url(text: str) -> bool:
    if " " in text:
        return False
    if text.startswith("http://") or text.startswith("www."):
        return True
    return _URL_REGEX.fullmatch(text.lower()) is not None


_GEO_REGEX = re.compile(r"^([-+]?\d{1,2}([.]\d+)?),?\s+([-+]?\d{1,3}([.]\d+)?)$")


def parse_geo_coordinate(text: str) -> bool:
    return _GEO_REGEX.fullmatch(text.lower()) is not None


_LIST_REGEX = re.compile(r"^\{.+\|.+\}$")


def check_if_list(text: str) -> bool:
    return _LIST_REGEX.fullmatch(text) is not None


def split_list_value(text: str) -> list[str]:
    """'{a|b|c}' → ['a','b','c'] (whole value returned as single element when
    not list-shaped)."""
    if check_if_list(text):
        return text[1:-1].split("|")
    return [text]
