"""Membership of a word in the R-parabolic subgroup P_lambda of a
cocharacter, and limits along a cocharacter.

Membership of a normalized word in P_lambda is decided on the nose: torus
atoms always have a limit, a Weyl/graph frame has one exactly when its root
map fixes lambda, and a unipotent tail has one exactly when every support
root pairs nonnegatively with lambda.
"""

from __future__ import annotations

from typing import Optional

from .chevalley import GroupWord, RadicalElement, normalize
from .rootsys import Cocharacter, pairing


def limit_along(lam: Cocharacter, frame: Optional[GroupWord], tail: RadicalElement):
    """Limit of frame*tail under conjugation by lam(a) as a goes to 0.

    Returns (frame, limit tail) or None when no limit exists.  The tail is
    required; frame may be None.  Frame atoms must centralize lam (their
    root maps fix it); a tail coefficient at a
    root with positive pairing is killed in the limit, one with negative
    pairing destroys the limit.
    """
    if frame is not None and frame.atoms:
        n = normalize(frame)
        if n.tail_atoms:
            raise ValueError("frame word must not contain root elements")
        if n.frame_map.act_cochar(lam) != lam:
            raise ValueError("frame atoms must centralize lambda")
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
    tail_roots = [e.root for e in n.tail_atoms] if n.tail is None else n.tail.support
    return all(pairing(r, lam) >= 0 for r in tail_roots)
