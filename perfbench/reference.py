"""Independent answer of the paper's Section 5 query, in plain numpy.

The benchmark checks every answer the program returns against this
module.  It shares no code with ``repro``'s engines, kernels or oracle:
it reads the generated columns and computes

    SELECT prefix(L.groupByExtractCol), COUNT(*)
    FROM T, L
    WHERE T.corPred <= a AND T.indPred <= b
      AND L.corPred <= c AND L.indPred <= d
      AND T.joinKey = L.joinKey
      AND days(T.predAfterJoin) - days(L.predAfterJoin) BETWEEN 0 AND 1
    GROUP BY prefix(L.groupByExtractCol)

without building the join: it counts the filtered T rows per
(join key, day) and gives each filtered L row the number of T rows on
its key whose day is the L row's day or the day after.  L is read in
fixed chunks so the computation's own memory stays small next to the
program's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

#: L rows handled per chunk; bounds the reference's transient memory.
CHUNK_ROWS = 262_144


@dataclass(frozen=True)
class Thresholds:
    """The four constants of one instance of the query template."""

    t_cor: int
    t_ind: int
    l_cor: int
    l_ind: int


def url_prefix(url: str) -> str:
    """``scheme://host`` of a URL, or its first path segment if it has
    no scheme."""
    if "://" in url:
        scheme, rest = url.split("://", 1)
        return scheme + "://" + rest.split("/", 1)[0]
    return url.split("/", 1)[0]


def paper_query_counts(t_columns: Dict[str, np.ndarray],
                       l_columns: Dict[str, np.ndarray],
                       urls: np.ndarray,
                       thresholds: Thresholds) -> Counter:
    """``{url prefix: joined row count}`` for one query instance.

    ``t_columns``/``l_columns`` map column names to the raw arrays;
    ``l_columns["groupByExtractCol"]`` holds codes into ``urls``.
    Groups with no joined row are absent, as in SQL.
    """
    t_mask = ((t_columns["corPred"] <= thresholds.t_cor)
              & (t_columns["indPred"] <= thresholds.t_ind))
    t_keys = t_columns["joinKey"][t_mask].astype(np.int64)
    t_days = t_columns["predAfterJoin"][t_mask].astype(np.int64)
    l_keys_all = l_columns["joinKey"]
    l_days_all = l_columns["predAfterJoin"]
    n_keys = int(max(t_keys.max(initial=-1), l_keys_all.max(initial=-1))) + 1
    n_days = int(max(t_days.max(initial=-1), l_days_all.max(initial=-1))) + 2
    if n_keys == 0:
        return Counter()
    # t_per_key_day[k, d]: filtered T rows with join key k on day d; the
    # extra trailing day is always zero, so day d + 1 is always in range.
    t_per_key_day = np.bincount(
        t_keys * n_days + t_days, minlength=n_keys * n_days
    ).reshape(n_keys, n_days)

    per_url = np.zeros(len(urls), dtype=np.int64)
    for start in range(0, len(l_keys_all), CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        mask = ((l_columns["corPred"][start:stop] <= thresholds.l_cor)
                & (l_columns["indPred"][start:stop] <= thresholds.l_ind))
        keys = l_keys_all[start:stop][mask].astype(np.int64)
        days = l_days_all[start:stop][mask].astype(np.int64)
        partners = t_per_key_day[keys, days] + t_per_key_day[keys, days + 1]
        per_url += np.bincount(
            l_columns["groupByExtractCol"][start:stop][mask],
            weights=partners, minlength=len(urls),
        ).astype(np.int64)

    counts: Counter = Counter()
    for url, count in zip(urls.tolist(), per_url.tolist()):
        if count:
            counts[url_prefix(url)] += count
    return counts


def as_rows(counts: Counter) -> Counter:
    """The answer as a multiset of ``(prefix, count)`` rows."""
    return Counter((prefix, count) for prefix, count in counts.items())


def rows_multiset(rows: Iterable[Tuple]) -> Counter:
    """A result's rows as a multiset, counts normalised to ``int``."""
    return Counter((prefix, int(count)) for prefix, count in rows)
