"""A monoid family and a check that several test modules share."""

from msetramsey.bigramsey import pi_star
from msetramsey.monoid import validate_monoid
from msetramsey.mset import MSetMorphism, enumerate_embeddings
from msetramsey.transport import hat_E_map


def truncated_powers(d):
    """The monogenic monoid {1, p, ..., p^d} with p^i * p^j = p^min(i+j, d).

    Index i stands for p^i. A rooted forest of height at most d is an
    M-set over it, with p^i acting as the parent map iterated i times.
    """
    table = [[min(i + j, d) for j in range(d + 1)] for i in range(d + 1)]
    return validate_monoid(d + 1, table, 0)


def equivariance_of_pi(u, a_star, lift_src, lift_dst):
    """Check pi(hat_E(u) . R) = u . pi(R) element by element: for each f
    in R, g = hat_E(u) . f has f's pattern and g* = u . f*."""
    eu = hat_E_map(u, lift_src, lift_dst)
    for f in enumerate_embeddings(a_star, lift_src.lifted):
        g = MSetMorphism(a_star, lift_dst.lifted,
                         tuple(eu.map[x] for x in f.map))
        rec_f = pi_star(f, lift_src)
        rec_g = pi_star(g, lift_dst)
        pushed = tuple(u.map[p] for p in rec_f.f_star.map)
        if rec_g.ell != rec_f.ell or rec_g.f_star.map != pushed:
            return False
    return True
