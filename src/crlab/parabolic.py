"""R-parabolic data from cocharacters: root decompositions, limits along a
cocharacter, cocharacter refinement, and minimality certificates over the
standard (torus-containing) parabolic patterns.

Membership of a normalized word in P_lambda is decided on the nose: torus
atoms always have a limit, a Weyl/graph frame has one exactly when its root
map fixes lambda, and a unipotent tail has one exactly when every support
root pairs nonnegatively with lambda.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from .chevalley import GroupWord, RadicalElement, normalize
from .rootsys import Cocharacter, RootSystem, pairing, row_reduce


class RParabolicData:
    """Root-level data of P_lambda: p/l/u root sets plus the diagram
    symmetries commuting with lambda."""

    def __init__(self, system: RootSystem, lam: Cocharacter):
        self.system = system
        self.lam = lam
        self.p_roots = frozenset(r for r in system.roots if pairing(r, lam) >= 0)
        self.l_roots = frozenset(r for r in system.roots if pairing(r, lam) == 0)
        self.u_roots = frozenset(r for r in system.roots if pairing(r, lam) > 0)
        self.sigma_components = tuple(
            name
            for name, m in sorted(system.diagram_symmetries().items())
            if m.act_cochar(lam) == lam
        )

    @property
    def l_simples(self) -> tuple:
        return tuple(s for s in self.system.simple_roots if pairing(s, self.lam) == 0)

    def __repr__(self):
        labels = lambda S: sorted(r.label for r in S)
        return (f"RParabolic(lam={self.lam}, l={labels(self.l_roots)}, "
                f"u={labels(self.u_roots)}, sigma={list(self.sigma_components)})")


def rparabolic(system: RootSystem, lam: Cocharacter) -> RParabolicData:
    return RParabolicData(system, lam)


def limit_along(lam: Cocharacter, frame: Optional[GroupWord], tail: Optional[RadicalElement]):
    """Limit of frame*tail under conjugation by lam(a) as a goes to 0.

    Returns (frame, limit tail) or None when no limit exists.  Frame atoms
    must centralize lam (their root maps fix it); a tail coefficient at a
    root with positive pairing is killed in the limit, one with negative
    pairing destroys the limit.
    """
    if frame is not None and frame.atoms:
        n = normalize(frame)
        if n.tail_atoms:
            raise ValueError("frame word must not contain root elements")
        if n.frame_map.act_cochar(lam) != lam:
            raise ValueError("frame atoms must centralize lambda")
    if tail is None:
        return frame, None
    for r in tail.support:
        if pairing(r, lam) < 0:
            return None
    kept = {r: c for r, c in tail.coeffs.items() if pairing(r, lam) == 0}
    limited = RadicalElement(tail.system, tail.registry, tail.order, kept)
    return frame, limited


def word_in_rparabolic(w: GroupWord, lam: Cocharacter) -> bool:
    """True when the normalized word lies in P_lambda."""
    n = normalize(w)
    if n.frame_map.act_cochar(lam) != lam:
        return False
    tail_roots = (
        tuple(n.tail.support) if n.collected else tuple(e.root for e in n.tail_atoms)
    )
    return all(pairing(r, lam) >= 0 for r in tail_roots)


def refine_with_multiplier(lam: Cocharacter, mu: Cocharacter) -> Tuple[Cocharacter, int]:
    """(zeta, m) with zeta = m*lam + mu for the minimal m >= 1 preserving
    every strict sign of lam on roots; the zeta-parabolic is then
    P_mu(L_lam) extended by R_u(P_lam) at the level of root sets."""
    system = lam.system
    strict = [(r, pairing(r, lam)) for r in system.roots if pairing(r, lam) != 0]
    m = 1
    while True:
        zeta = m * lam + mu
        if all((pairing(r, zeta) > 0) == (p > 0) for r, p in strict):
            return zeta, m
        m += 1


def _fundamental_coweights(system: RootSystem) -> List[Cocharacter]:
    """Integral multiples of the fundamental coweights: column i pairs to
    det(C) against alpha_i and to 0 against the other simples."""
    n = system.rank
    # [C | I] reduces to [I | C^-1]; det(C) * C^-1 is the integral adjugate
    reduced, _, det = row_reduce([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(system.cartan)])
    out = []
    for i in range(n):
        col = [reduced[j][n + i] * det for j in range(n)]
        assert all(c.denominator == 1 for c in col)
        out.append(system.cocharacter([int(c) for c in col]))
    return out


class MinimalityReport:
    def __init__(self, data, sub_patterns, standard_patterns, minimal, borel):
        self.data = data
        self.sub_patterns = sub_patterns            # [(levi subset labels, zeta, contains)]
        self.standard_patterns = standard_patterns  # [(levi subset labels, zeta, contains)]
        self.minimal = minimal
        self.borel = borel                          # zeta of the Borel refinement

    def containing_standard(self) -> list:
        return [S for S, _, contains in self.standard_patterns if contains]


def minimality_certificate(data: RParabolicData, generators: Sequence[GroupWord]) -> MinimalityReport:
    """Scan standard sub-parabolic patterns of P_lambda (subsets of the Levi
    simples, refined into the radical) and the proper standard patterns of
    the ambient group, reporting which still contain every generator."""
    system = data.system
    for g in generators:
        if not word_in_rparabolic(g, data.lam):
            raise ValueError("a generator lies outside the given parabolic")
    fcw = _fundamental_coweights(system)
    name_of = {s: i for i, s in enumerate(system.simple_roots)}
    l_simples = data.l_simples

    def pattern_cochar(levi_subset, ambient=False):
        outside = [s for s in (system.simple_roots if ambient else l_simples)
                   if s not in levi_subset]
        mu = system.cocharacter([0] * system.rank)
        for s in outside:
            mu = mu + fcw[name_of[s]]
        return mu

    sub_patterns = []
    borel = None
    for k in range(len(l_simples) + 1):
        for subset in combinations(l_simples, k):
            if len(subset) == len(l_simples):
                continue  # that is P_lambda itself
            mu = pattern_cochar(subset)
            zeta = refine_with_multiplier(data.lam, mu)[0]
            contains = all(word_in_rparabolic(g, zeta) for g in generators)
            sub_patterns.append((tuple(s.label for s in subset), zeta, contains))
            if not subset:
                borel = zeta

    standard_patterns = []
    for k in range(system.rank):
        for subset in combinations(system.simple_roots, k):
            mu = pattern_cochar(subset, ambient=True)
            contains = all(word_in_rparabolic(g, mu) for g in generators)
            standard_patterns.append((tuple(s.label for s in subset), mu, contains))

    minimal = not any(contains for _, _, contains in sub_patterns)
    return MinimalityReport(data, sub_patterns, standard_patterns, minimal, borel)
