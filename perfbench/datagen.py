"""Seeded synthetic rating files in two shapes.

Users belong to planted taste groups, item popularity follows a Zipf law and
ratings sit on a 0.5-step grid from 0.5 to 4.0 (the FilmTrust scale).  The
same shape and seed always give a byte-identical file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np


@dataclass(frozen=True)
class Shape:
    users: int
    items: int
    ratings: int
    groups: int


SHAPES = {
    # FilmTrust-sized: the full ten-fold comparison
    "ft": Shape(users=1500, items=2000, ratings=22_000, groups=8),
    # the clustering cap of 3000 users
    "cap": Shape(users=3000, items=6000, ratings=82_000, groups=12),
}

ZIPF_EXPONENT = 1.0
SCALE_MIN, SCALE_MAX = 0.5, 4.0


def activity(shape: Shape) -> np.ndarray:
    """Ratings per user, heaviest first: at least two each, the rest shared
    in proportion to log-normal quantiles.  The profile is the same for
    every seed, so seeds change who rates what but not how much work a
    run does."""
    z = np.array([NormalDist().inv_cdf((k + 0.5) / shape.users) for k in range(shape.users)])
    share = np.exp(-z) / np.exp(-z).sum() * (shape.ratings - 2 * shape.users)
    counts = np.floor(share).astype(np.int64)
    counts[np.argsort(counts - share, kind="stable")[: shape.ratings - 2 * shape.users - counts.sum()]] += 1
    return np.minimum(2 + counts, shape.items)


def generate(shape: Shape, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(users, items, ratings) triples, user-major, with no repeated pair."""
    rng = np.random.default_rng(seed)
    rank = rng.permutation(shape.items)
    popularity = 1.0 / (rank + 1.0) ** ZIPF_EXPONENT
    popularity /= popularity.sum()
    counts = rng.permutation(activity(shape))
    group = rng.permutation(np.arange(shape.users) % shape.groups)
    quality = rng.normal(0.0, 0.4, shape.items)
    taste = rng.normal(0.0, 0.7, (shape.groups, shape.items))
    leniency = rng.normal(0.0, 0.3, shape.users)

    users, items, ratings = [], [], []
    for u in range(shape.users):
        chosen = rng.choice(shape.items, size=int(counts[u]), replace=False, p=popularity)
        raw = 2.6 + quality[chosen] + taste[group[u], chosen] + leniency[u] + rng.normal(0.0, 0.5, len(chosen))
        users.append(np.full(len(chosen), u))
        items.append(chosen)
        ratings.append(np.clip(np.round(raw * 2.0) / 2.0, SCALE_MIN, SCALE_MAX))
    return np.concatenate(users), np.concatenate(items), np.concatenate(ratings)


def write_rating_file(path: Path, shape: Shape, seed: int) -> None:
    """Write the triples as `user<TAB>item<TAB>rating` lines."""
    users, items, ratings = generate(shape, seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"u{u}\ti{i}\t{r:.1f}\n" for u, i, r in zip(users, items, ratings))
