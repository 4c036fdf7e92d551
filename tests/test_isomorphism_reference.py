"""``is_isomorphic``'s closed-form candidate angles against the search they replaced.

``_reference_is_isomorphic`` is the search ``is_isomorphic`` ran before:
for the unconjugated and then the conjugated orientation it samples the
intertwining residual R(rho) at five angles, solves the degree-8
polynomial of the stationary angles of |R|^2, polishes them by Newton's
method, scores rho = 0 and those angles, and lets the conjugated
orientation win only on a strictly smaller residual.  ``is_isomorphic``
now scores only the few angles at which an intertwining map can lie,
solved in closed form from the parts of the constants that turn with rho
(``classification._angles``).  It must return None exactly where the
reference does.  On every pair of structures classified on one sampled
algebra of each case tag the maps are byte-identical; on random
antisymmetric constants in random frames (through a stand-in that
exposes only what ``is_isomorphic`` reads) every returned map must fix
xi, be orthogonal and intertwine to the gate, and on pairs built by a
known map it must be the reference's map to 1e-12.  Pairs built with
exactly one part that turns with rho, or none, test each candidate;
maps are bit-identical under c -> 2^k c.  A structure paired with
itself, or with one of bit-identical constants that passes the D check,
returns the rho = 0 map without scoring, byte for byte the search's.
"""

import copy
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from contact3 import classification, classify, classify_representatives, construct_case1, construct_case2, construct_case3
from contact3.classification import is_isomorphic
from contact3.lie_core import LinearFunctional, MilnorParameters
from contact3.tolerances import IDENTITY_RTOL, PREDICATE_TOL
from contact3.verify import CASE_TAGS, sample_functional, sample_params

_ANGLES = 2.0 * math.pi * np.arange(5) / 5
_DFT = np.exp(-1j * np.outer(np.arange(-2, 3), _ANGLES)) / 5
_FREQS = np.arange(-4, 5)


def _ref_frames(rhos, conj):
    sig = -1.0 if conj else 1.0
    cr, sr = np.cos(rhos), np.sin(rhos)
    F = np.zeros((len(rhos), 3, 3))
    F[:, 0, 0] = 1.0
    F[:, 1, 1], F[:, 2, 1] = cr, sr
    F[:, 1, 2], F[:, 2, 2] = -sr * sig, cr * sig
    return F


def _ref_residuals(c1, c2, F):
    return np.einsum("abk,nmk->nabm", c1, F) - np.einsum("nia,njb,ijm->nabm", F, F, c2)


def _ref_stationary_angles(c1, c2, conj):
    r = _DFT @ _ref_residuals(c1, c2, _ref_frames(_ANGLES, conj)).reshape(5, -1)
    M = r @ r.T
    p = np.zeros(9, dtype=complex)
    for n in range(5):
        p[n : n + 5] += M[n]
    d1 = 1j * _FREQS * p
    d2 = -(_FREQS**2) * p
    big = np.flatnonzero(np.abs(d1) > IDENTITY_RTOL * np.abs(d1).max(initial=0.0))
    if not big.size:
        return np.zeros(0)
    K = max(abs(int(_FREQS[big[0]])), int(_FREQS[big[-1]]))
    rhos = np.angle(np.roots(d1[4 - K : 5 + K][::-1]))
    for _ in range(30):
        E = np.exp(1j * np.outer(rhos, _FREQS))
        f1, f2 = (E @ d1).real, (E @ d2).real
        step = np.divide(f1, f2, out=np.zeros_like(f1), where=np.abs(f1) < np.abs(f2))
        rhos = rhos - step
        if np.abs(step).max(initial=0.0) <= 1e-15:
            break
    return rhos


def _reference_is_isomorphic(s1, s2):
    D1, D2 = s1.invariant_D(), s2.invariant_D()
    if abs(D1 - D2) > 1e-6 * max(1.0, abs(D1), abs(D2)):
        return None
    c1, c2 = s1.raw_basis_constants(), s2.raw_basis_constants()
    scale = max(float(np.abs(c1).max()), float(np.abs(c2).max()))
    best = (math.inf, None)
    for conj in (False, True):
        rhos = np.concatenate(([0.0], _ref_stationary_angles(c1, c2, conj)))
        F = _ref_frames(rhos, conj)
        res = np.abs(_ref_residuals(c1, c2, F)).reshape(len(rhos), -1).max(axis=1)
        i = int(np.argmin(res))
        if res[i] < best[0]:
            best = (res[i], F[i])
    if best[0] > PREDICATE_TOL * scale:
        return None
    return s2.basis.matrix @ best[1] @ s1.basis.matrix.T


def _assert_same(s1, s2):
    got = is_isomorphic(s1, s2)
    ref = _reference_is_isomorphic(s1, s2)
    assert (got is None) == (ref is None)
    assert got is None or np.array_equal(got, ref)
    return got


def _assert_intertwines(c1, c2, B1, B2, m):
    """m, in ambient coordinates, fixes xi, is orthogonal and carries the brackets c1 in frame B1 to c2 in B2 to the gate."""
    F = B2.T @ m @ B1
    np.testing.assert_allclose(F[:, 0], [1.0, 0.0, 0.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(F.T @ F, np.eye(3), rtol=0, atol=1e-12)
    scale = max(np.abs(c1).max(), np.abs(c2).max())
    assert np.abs(_ref_residuals(c1, c2, F[None])).max() <= PREDICATE_TOL * scale


def _raw(c, B, D=0.0):
    """What ``is_isomorphic`` reads of a structure: D, its constants in the adapted frame B, and B."""
    return SimpleNamespace(invariant_D=lambda: D, raw_basis_constants=lambda: c, basis=SimpleNamespace(matrix=B))


def _map(rho, sig):
    return np.array([[1.0, 0.0, 0.0], [0.0, math.cos(rho), -sig * math.sin(rho)], [0.0, math.sin(rho), sig * math.cos(rho)]])


def _mapped(c, F):
    return np.einsum("ia,jb,abk,mk->ijm", F, F, c, F)  # the constants F carries c to


def _random_pair(rng):
    c = rng.normal(size=(3, 3, 3)) * 10.0 ** rng.uniform(-3, 3)
    c = c - np.swapaxes(c, 0, 1)
    mapped = _mapped(c, _map(rng.uniform(0, 2 * math.pi), rng.choice((-1.0, 1.0))))
    other = rng.normal(size=(3, 3, 3))
    return c, mapped, other - np.swapaxes(other, 0, 1)


def _frame(rng):
    return np.linalg.qr(rng.normal(size=(3, 3)))[0]


@pytest.mark.parametrize("seed", range(8))
def test_random_constants_match_the_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        c, mapped, other = _random_pair(rng)
        B1, B2 = _frame(rng), _frame(rng)
        for c2 in (c, mapped, other):
            got = is_isomorphic(_raw(c, B1), _raw(c2, B2))
            ref = _reference_is_isomorphic(_raw(c, B1), _raw(c2, B2))
            assert (got is None) == (ref is None)
            if got is not None:
                _assert_intertwines(c, c2, B1, B2, got)
            if c2 is mapped:
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def _constants(rng, part):
    """Random antisymmetric constants in which, of a, w and s (see ``classification._angles``), only ``part`` is nonzero.

    The parts that do not turn with rho are random and nonzero: the
    complex-linear part p of ad xi on ker eta and t = eta([e, phi_e]).  The
    conjugation turns p to its conjugate and t to -t, so only maps of the
    pair's own orientation intertwine.
    """
    z = {name: complex(*rng.normal(size=2)) if name in (part, "p") else 0j for name in "awsp"}
    a, w, s, p = z["a"], z["w"], z["s"] / 2, z["p"]
    c = np.zeros((3, 3, 3))
    c[0, 1:, 0] = a.real, a.imag
    c[1, 2] = rng.normal(), w.real, w.imag
    c[0, 1, 1:] = p.real + s.real, p.imag + s.imag  # ad xi (e)
    c[0, 2, 1:] = s.imag - p.imag, p.real - s.real  # ad xi (phi_e)
    return c - np.swapaxes(c, 0, 1)


@pytest.mark.parametrize("sig", (1.0, -1.0))
@pytest.mark.parametrize("part", ("a", "w", "s", None))
def test_each_candidate_finds_the_map_built_with_it(part, sig):
    # a and w fix the angle; s fixes it up to pi, and a rotation by pi keeps
    # the other parts; with none of the three every angle intertwines
    rng = np.random.default_rng([53, "awsN".index(str(part)[0]), int(sig > 0)])
    for rho in np.linspace(-math.pi, math.pi, 13)[:-1] + rng.uniform(0, 0.5):
        c, F = _constants(rng, part), _map(rho, sig)
        B1, B2 = _frame(rng), _frame(rng)
        got = is_isomorphic(_raw(c, B1), _raw(_mapped(c, F), B2))
        _assert_intertwines(c, _mapped(c, F), B1, B2, got)
        if part in ("a", "w"):
            np.testing.assert_allclose(got, B2 @ F @ B1.T, rtol=0, atol=1e-12)
        elif part == "s":
            near = [np.abs(got - B2 @ G @ B1.T).max() for G in (F, _map(rho + math.pi, sig))]
            assert min(near) <= 1e-12


@pytest.mark.parametrize("sig", (1.0, -1.0))
def test_a_weak_part_picks_the_half_turn_of_s(sig):
    # |a| = 1e-8 of the scale sets the maps at rho and rho + pi 2e-8 apart,
    # beyond the gate, but carried through a frame that mixes every entry
    # its own angle is good to only about 1e-8: the s candidate in the right
    # half, which may be the + pi one, must win
    rng = np.random.default_rng([59, int(sig > 0)])
    for rho in np.linspace(-math.pi, math.pi, 13)[:-1] + rng.uniform(0, 0.5):
        c = _constants(rng, "s")
        angle = rng.uniform(0, 2 * math.pi)
        c[0, 1:, 0] = 1e-8 * math.cos(angle), 1e-8 * math.sin(angle)
        c[1:, 0, 0] = -c[0, 1:, 0]
        F, Q = _map(rho, sig), _frame(rng)
        c2 = _mapped(_mapped(c, Q), F @ Q.T)
        B1, B2 = _frame(rng), _frame(rng)
        got = is_isomorphic(_raw(c, B1), _raw(c2, B2))
        np.testing.assert_allclose(got, B2 @ F @ B1.T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", (-900, -600, -64, -1, 1, 64, 600, 900))
def test_maps_are_bit_identical_under_power_of_two_scales(k):
    rng = np.random.default_rng([61, k + 1000])
    for _ in range(20):
        c, mapped, other = _random_pair(rng)
        B1, B2 = _frame(rng), _frame(rng)
        for c2 in (mapped, other):
            got = is_isomorphic(_raw(np.ldexp(c, k), B1), _raw(np.ldexp(c2, k), B2))
            want = is_isomorphic(_raw(c, B1), _raw(c2, B2))
            assert (got is None) == (want is None)
            assert got is None or got.tobytes() == want.tobytes()


def _tag_structures(tag, rng):
    src = sample_functional(rng) if tag == "E" else sample_params(rng, tag)
    reps = classify_representatives(src)
    out = [r.structure for r in reps]
    for r in reps:
        out += [classify(src, r.structure.basis.xi).structure, classify(src, -r.structure.basis.xi).structure]
    return out


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_every_tags_structures_match_the_reference(tag):
    rng = np.random.default_rng([17, CASE_TAGS.index(tag)])
    for _ in range(3):
        for s1, s2 in itertools.product(_tag_structures(tag, rng), repeat=2):
            _assert_same(s1, s2)


def test_self_pair_maps_by_the_identity():
    s = construct_case1((3, 3, 1, -1))
    assert np.array_equal(_assert_same(s, s), np.eye(3))


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_self_pair_shortcut_is_the_searchs_map(tag):
    # a structure paired with itself or with a copy skips the search; the
    # search's map (rho = 0, with its -0.0) must match byte for byte
    rng = np.random.default_rng([19, CASE_TAGS.index(tag)])
    for _ in range(8):
        for s in _tag_structures(tag, rng):
            got, searched = is_isomorphic(s, s), is_isomorphic(s, copy.copy(s))
            assert got.tobytes() == searched.tobytes() == _reference_is_isomorphic(s, s).tobytes()


def test_conjugate_only_pair_matches_the_reference():
    # (A, 0, -C) and (A, 0, +C): only the conjugated orientation intertwines
    ps1 = construct_case3((2, 2, 0, 0))
    ps2 = construct_case2((2, 2, 0, 0), math.atan2(1.0, -1.0) % math.pi)
    m = _assert_same(ps1, ps2)
    F = ps2.basis.matrix.T @ m @ ps1.basis.matrix
    assert np.linalg.det(F) == pytest.approx(-1.0, abs=1e-12)


def test_unequal_D_matches_the_reference():
    assert _assert_same(construct_case1((3, 0, 0, -1)), construct_case1((1, 0, 0, 1))) is None


def _no_search(monkeypatch):
    def fail(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(classification, "_residuals", fail)


def _equal_constant_pairs():
    """Distinct structures with bit-identical constants: rebuilt copies, and the +-xi structures of D and E."""
    for tag in CASE_TAGS:
        rng = np.random.default_rng([43, CASE_TAGS.index(tag)])
        src = sample_functional(rng) if tag == "E" else sample_params(rng, tag)
        again = LinearFunctional(src.l.copy()) if tag == "E" else MilnorParameters(src.alpha, src.beta, src.gamma, src.delta)
        reps = classify_representatives(src)
        for r, rebuilt in zip(reps, classify_representatives(again)):
            yield r.structure, rebuilt.structure
            if tag in ("D", "E"):
                yield r.structure, classify(src, -r.structure.basis.xi).structure


def test_equal_constants_shortcut_is_the_searchs_map(monkeypatch):
    pairs = list(_equal_constant_pairs())
    assert len(pairs) > len(CASE_TAGS)
    want = []
    for s1, s2 in pairs:
        assert s1 is not s2 and np.array_equal(s1.raw_basis_constants(), s2.raw_basis_constants())
        want += [_reference_is_isomorphic(s1, s2).tobytes(), _reference_is_isomorphic(s2, s1).tobytes()]
    _no_search(monkeypatch)
    assert [is_isomorphic(*pair).tobytes() for s1, s2 in pairs for pair in ((s1, s2), (s2, s1))] == want


def test_equal_constants_with_D_apart_are_not_isomorphic(monkeypatch):
    rng = np.random.default_rng(47)
    c, _, _ = _random_pair(rng)
    B1, B2 = _frame(rng), _frame(rng)
    assert _reference_is_isomorphic(_raw(c, B1, 1.0), _raw(c.copy(), B2, 1.0 + 1e-5)) is None
    _no_search(monkeypatch)
    assert is_isomorphic(_raw(c, B1, 1.0), _raw(c.copy(), B2, 1.0 + 1e-5)) is None
    got = is_isomorphic(_raw(c, B1, 1.0), _raw(c.copy(), B2, 1.0 + 1e-7))
    assert got.tobytes() == (B2 @ _ref_frames(np.zeros(1), False)[0] @ B1.T).tobytes()
