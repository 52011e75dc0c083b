"""Log-template extraction: raw lines -> stable template keys -> counts.

The detector never looks at raw messages.  Each line is *masked* — the
variable tokens (numbers, durations, hex identifiers, quoted strings,
IPs, paths) replaced with ``<*>`` — and the masked string, prefixed with
the line's severity, becomes the template key.  Keying on the masked
string itself (a Drain-style parse tree collapsed to its leaf) keeps the
mapping deterministic under any arrival order: two runs that see the
same lines in different interleavings still count against identical
keys, which is what the service's serial==pool parity discipline
requires of every component on the verdict path.

:class:`TemplateCounter` accumulates per-tick ``(database, template)``
counts for one unit and sums them over a detection round's tick span
``[start, end)`` — the per-tick, per-database log-template count series
the log-frequency detector scores.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from typing import Dict, Iterable, List, Tuple

from repro.logs.events import LogEvent

__all__ = ["mask_message", "template_key", "TemplateCounter"]

#: One scanning pass, alternatives in priority order (the regex engine
#: tries them left to right at each position).  Quoted strings and hex
#: ids come first so their numeric innards never match the later digit
#: alternatives; the digit alternatives mirror, in order: dotted numbers
#: (IPs, versions), ``=``/``:``/``/``/``#``-prefixed values, plain
#: numbers, and the digit halves of tokens like ``87s`` or ``txn9138``.
#: A single compiled pass instead of one pass per token class keeps the
#: per-event cost flat — masking runs on the serving path, inside the
#: log channel's <=5% overhead budget.
_MASK: re.Pattern = re.compile(
    r"'[^']*'"
    r"|\"[^\"]*\""
    r"|\b0x[0-9a-fA-F]+\b"
    r"|\b\d+(?:\.\d+)+\b"
    r"|(?<=[=:/#])\d+"
    r"|\b\d+(?:\.\d+)?\b"
    r"|\b\d+(?=[a-zA-Z])"
    r"|(?<=[a-zA-Z])\d+\b"
)


#: Memo of token -> masked token.  Every mask pattern except the quoted
#: strings is confined to a single space-delimited token (a space is a
#: non-word character, so ``\b`` at a token edge behaves exactly as it
#: does mid-string), which lets masking run per token through this
#: cache.  Log vocabulary is small — template words repeat endlessly and
#: variable tokens draw from bounded ranges — so the hit rate approaches
#: one and the cached path is several times cheaper than scanning.  The
#: cache only short-circuits recomputation of a pure function; entries
#: past the cap are simply not stored, so results never depend on cache
#: state.
_TOKEN_CACHE: Dict[str, str] = {}
_TOKEN_CACHE_LIMIT = 1 << 16


def mask_message(message: str) -> str:
    """Collapse a log line's variable tokens to ``<*>`` placeholders.

    >>> mask_message("slow query: 812 ms scanning 53211 rows on t42")
    'slow query: <*> ms scanning <*> rows on t<*>'
    """
    cache = _TOKEN_CACHE
    masked: List[str] = []
    for token in message.split(" "):
        value = cache.get(token)
        if value is None:
            if "'" in token or '"' in token:
                # Quoted strings may span spaces: scan the whole line
                # (quote-bearing tokens are never cached, so all get here).
                return _MASK.sub("<*>", message)
            value = "<*>" if token.isdigit() else _MASK.sub("<*>", token)
            if len(cache) < _TOKEN_CACHE_LIMIT:
                cache[token] = value
        masked.append(value)
    return " ".join(masked)


def template_key(event: LogEvent) -> str:
    """The counting key of one event: severity-qualified masked line.

    The severity prefix keeps an ERROR burst distinct from INFO chatter
    that happens to mask to the same shape, and lets the detector apply
    severity-aware rules (a *novel* ERROR template is itself a signal; a
    novel INFO template is not).
    """
    return f"{event.level}:{mask_message(event.message)}"


class TemplateCounter:
    """Per-tick ``(database, template)`` counts for one unit.

    Parameters
    ----------
    n_databases:
        Databases in the unit; events indexing beyond it are rejected.

    The counter is append-only per tick and trimmed from the front as
    detection rounds consume the stream, so memory stays bounded by the
    in-flight window, not the run length.
    """

    def __init__(self, n_databases: int):
        if n_databases < 1:
            raise ValueError("n_databases must be >= 1")
        self.n_databases = n_databases
        #: Per tick, the ``(database, template)`` cell of every event in
        #: arrival order; counting is deferred to the per-round sums.
        self._by_tick: Dict[int, List[Tuple[int, str]]] = {}
        self.events_counted = 0

    def observe(self, tick: int, events: Iterable[LogEvent]) -> int:
        """Count one tick's events; returns how many were counted."""
        # Per-event work rides the scheduler loop, so the body is kept
        # allocation-light: one cell list per tick, locals for the hot
        # lookups, and the key built inline (== template_key(event)).
        n_databases = self.n_databases
        cells = self._by_tick.setdefault(tick, [])
        held = len(cells)
        mask = mask_message
        for event in events:
            database = event.database
            if not 0 <= database < n_databases:
                raise ValueError(
                    f"event database {database} outside unit of "
                    f"{n_databases} databases"
                )
            cells.append((database, f"{event.level}:{mask(event.message)}"))
        counted = len(cells) - held
        self.events_counted += counted
        return counted

    def window_counts(self, start: int, end: int) -> Dict[Tuple[int, str], int]:
        """Summed ``(database, template) -> count`` over ``[start, end)``."""
        if end <= start:
            raise ValueError("window must satisfy start < end")
        # One C-level count over the span's cells; keys keep first-seen
        # order, as the judge's float sums over them require.
        by_tick = self._by_tick
        return Counter(
            chain.from_iterable(by_tick.get(tick, ()) for tick in range(start, end))
        )

    def trim(self, before_tick: int) -> None:
        """Drop per-tick buckets below ``before_tick`` (already consumed)."""
        for tick in [t for t in self._by_tick if t < before_tick]:
            del self._by_tick[tick]
