"""Seeded workload inputs, built with numpy alone.

Nothing here calls into ``contact3``: the regime of an algebra is decided
by the benchmark's own closed form, so a change to the library's solver
or tolerances cannot change the corpus a seed produces.

Sources are plain tuples: ``("milnor", (alpha, beta, gamma, delta))`` or
``("functional", (l1, l2, l3))``.  Parameters that move the cost of an op
(the shear q, the scale r) follow a golden-ratio sequence from a small
seeded offset: any prefix of a corpus covers their range evenly, starting
at its low end (the largest oracle clusters), so every seed gives a corpus
of the same cost profile and a run's peak memory does not depend on which
inputs its prefix happened to reach.
"""

from __future__ import annotations

import math

import numpy as np

TAGS = ("A1", "A2", "B1", "B2", "C1", "C2", "D", "E")
CIRCLE_TAGS = ("B1", "B2", "C1", "C2")
ISOLATED_TAGS = ("A1", "A2", "D", "E")

WORKLOADS = ("oracle-circle", "oracle-isolated", "classify", "atlas", "classify-edge")
CORPUS_SIZE = 256
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# relative distance from a case boundary below which a point counts as on it
BOUNDARY_MARGIN = 1e-6
# interior sources keep this relative distance from every case boundary
INTERIOR_MARGIN = 0.05
# A2 roots must be this far apart (and from antipodal) for a grid-400 scan
ROOT_GAP = 0.12

WARMUP = {
    "oracle": {"tag": "A2", "source": ("milnor", (3.0, 0.0, 0.0, -1.0))},
    "classify": {
        "tag": "A2",
        "source": ("milnor", (3.0, 0.0, 0.0, -1.0)),
        "feature": 1,
        "angle": 0.5,
    },
    "atlas": {"r": 1.0, "p": (-1.0, 1.0, 3), "q": (0.0, 0.0, 1)},
}


def spread(rng: np.random.Generator, n: int) -> np.ndarray:
    """n values in [0, 1): a seeded offset below 1/64 plus golden-ratio steps."""
    return (rng.random() / 64.0 + _GOLDEN * np.arange(n)) % 1.0


def milnor_from_pqr(p: float, q: float, r: float) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, delta) with alpha = r+p, delta = r-p, beta = (r+p)q, gamma = -(r-p)q."""
    return (r + p, (r + p) * q, -(r - p) * q, r - p)


def regime(p: float, q: float, r: float) -> str | None:
    """Case tag of the adapted-form algebra (p, q, r), or None near a boundary.

    The exact lines p = 0 and p = +-r (and q = 0 on them) are decided
    exactly; elsewhere the A1/A2 split is the sign of
    (beta+gamma)^2 - 4 alpha delta = 4 (p^2 (1+q^2) - r^2), and points
    within BOUNDARY_MARGIN of any boundary give None.
    """
    if p == 0.0:
        return "D"
    if p == r or p == -r:
        return ("B" if p == r else "C") + ("2" if q == 0.0 else "1")
    near = BOUNDARY_MARGIN * abs(r)
    if abs(p) <= near or abs(abs(p) - abs(r)) <= near:
        return None
    disc = (p * p * (1.0 + q * q) - r * r) / (r * r)
    if abs(disc) <= BOUNDARY_MARGIN:
        return None
    return "A2" if disc > 0.0 else "A1"


def root_gap(p: float, q: float, r: float) -> float:
    """Angle between the two in-plane geodesic lines of an A2 algebra.

    The lines are the null directions of S = [[alpha, (beta+gamma)/2],
    [(beta+gamma)/2, delta]]; with eigenvalues l1 < 0 < l2 they sit at
    +-atan(sqrt(-l1/l2)) from the l1 eigenvector.
    """
    a, b, g, d = milnor_from_pqr(p, q, r)
    l1, l2 = np.linalg.eigvalsh(np.array([[a, 0.5 * (b + g)], [0.5 * (b + g), d]]))
    return 2.0 * math.atan(math.sqrt(-l1 / l2))


def _interior_source(rng: np.random.Generator, tag: str, uq: float, ur: float):
    """One source of the given tag, away from every case boundary."""
    r = (0.3 + 2.7 * ur) * float(rng.choice((-1.0, 1.0)))
    if tag == "E":
        v = rng.standard_normal(3)
        return ("functional", tuple(float(x) for x in v / np.linalg.norm(v) * abs(r)))
    if tag == "D":
        return ("milnor", milnor_from_pqr(0.0, -2.0 + 4.0 * uq, r))
    if tag in CIRCLE_TAGS:
        p = r if tag[0] == "B" else -r
        q = 0.0 if tag[1] == "2" else (0.35 + 2.15 * uq) * float(rng.choice((-1.0, 1.0)))
        return ("milnor", milnor_from_pqr(p, q, r))
    lo, hi = (0.1, 0.9) if tag == "A1" else (1.1, 2.5)
    for _ in range(1000):
        q = -2.0 + 4.0 * uq
        p = (lo + (hi - lo) * rng.random()) * abs(r) / math.hypot(1.0, q)
        p *= float(rng.choice((-1.0, 1.0)))
        far = min(abs(p), abs(abs(p) - abs(r))) >= INTERIOR_MARGIN * abs(r)
        if far and regime(p, q, r) == tag:
            if tag == "A1":
                return ("milnor", milnor_from_pqr(p, q, r))
            gap = root_gap(p, q, r)
            if ROOT_GAP < gap < math.pi - ROOT_GAP:
                return ("milnor", milnor_from_pqr(p, q, r))
        uq = rng.random()
    raise RuntimeError(f"could not draw an interior {tag} source")


def interior_sources(rng: np.random.Generator, tags, n: int) -> list[dict]:
    """n sources cycling through ``tags``; q and r spread per tag."""
    per_tag = -(-n // len(tags))
    uq = {t: spread(rng, per_tag) for t in tags}
    ur = {t: spread(rng, per_tag) for t in tags}
    out = []
    for i in range(n):
        tag = tags[i % len(tags)]
        k = i // len(tags)
        out.append({"tag": tag, "source": _interior_source(rng, tag, uq[tag][k], ur[tag][k])})
    return out


def _with_xi(rng: np.random.Generator, items: list[dict]) -> list[dict]:
    # xi is chosen inside the op from the enumeration: a feature index
    # (taken modulo the feature count) and an angle for full circles
    for item in items:
        item["feature"] = int(rng.integers(1 << 20))
        item["angle"] = float(rng.uniform(0.0, 2.0 * math.pi))
    return items


def _boundary_source(rng: np.random.Generator) -> dict:
    # p = +-r(1+eps) or p = eps|r|, |eps| log-uniform in [1e-14, 1e-2]
    r = float(rng.uniform(0.3, 3.0)) * float(rng.choice((-1.0, 1.0)))
    q = float(rng.uniform(-2.0, 2.0))
    eps = 10.0 ** float(rng.uniform(-14.0, -2.0)) * float(rng.choice((-1.0, 1.0)))
    kind = int(rng.integers(3))
    p = (r * (1.0 + eps), -r * (1.0 + eps), eps * abs(r))[kind]
    return {"tag": "boundary", "source": ("milnor", milnor_from_pqr(p, q, r))}


def _rescaled(rng: np.random.Generator, item: dict) -> dict:
    # c -> lambda c, lambda log-uniform in [1e-8, 1e8]
    lam = 10.0 ** float(rng.uniform(-8.0, 8.0))
    kind, values = item["source"]
    return {"tag": item["tag"] + "*", "source": (kind, tuple(lam * v for v in values))}


def atlas_tiles(rng: np.random.Generator, n: int) -> list[dict]:
    """Tiles of the (p, q) plane, 9 x 5 = 45 rows each.

    p runs over -2r..2r in steps of r/2 and q over -2s..2s for a q step s
    of 1/4, 1/2 or 1 (cycling), with r = +-m/8.  All are dyadic, so the
    grid holds p = 0, p = +-r and q = 0 exactly after the CLI's linspace.
    The p window scales with r, which keeps the share of costly A2 rows
    (20 or 24 of 45) nearly the same in every tile.
    """
    ur = spread(rng, n)
    tiles = []
    for i in range(n):
        r = (4 + int(21 * ur[i])) / 8.0 * float(rng.choice((-1.0, 1.0)))
        q_step = (0.25, 0.5, 1.0)[i % 3]
        tiles.append({"r": r, "p": (-2.0 * abs(r), 2.0 * abs(r), 9), "q": (-2.0 * q_step, 2.0 * q_step, 5)})
    return tiles


def make_corpus(workload: str, seed: int, n: int = CORPUS_SIZE) -> list[dict]:
    """The fixed inputs of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "oracle-circle":
        return interior_sources(rng, CIRCLE_TAGS, n)
    if workload == "oracle-isolated":
        return interior_sources(rng, ISOLATED_TAGS, n)
    if workload == "classify":
        return _with_xi(rng, interior_sources(rng, TAGS, n))
    if workload == "classify-edge":
        base = interior_sources(rng, TAGS, n)
        items = [_boundary_source(rng) if i % 2 == 0 else _rescaled(rng, base[i]) for i in range(n)]
        return _with_xi(rng, items)
    return atlas_tiles(rng, n)
