"""Demazure operators on formal sums, word-indexed compositions, and the two
Demazure character formulas.

The operator D attached to a positive root beta sends a single exponential
e^mu, with n the pairing of mu against beta's coroot, to

    n >= 0 :  e^mu + e^{mu - beta} + ... + e^{mu - n*beta}
    n == -1:  0
    n <= -2:  -e^{mu + beta} - ... - e^{mu + (-n-1)*beta}

extended Z-linearly.  The companion operator d = D - 1 subtracts the
identity.  Compositions act rightmost-first throughout this module.
"""

from .formal import FormalSum
from .rootsys import Root, RootSystem, check_weight
from .weyl import weyl_group


def _check_sum(rs: RootSystem, s: FormalSum) -> None:
    if not isinstance(s, FormalSum):
        raise TypeError(f"expected a FormalSum, got {type(s).__name__}")
    if s.rank != rs.rank:
        raise ValueError(f"sum has rank {s.rank}, algebra {rs.name} has rank {rs.rank}")


def _simple_root(rs: RootSystem, i: int) -> Root:
    if not 1 <= i <= rs.rank:
        raise ValueError(f"operator index {i} out of range 1..{rs.rank}")
    return rs.simple_roots[i - 1]


def _demazure(rs: RootSystem, root: Root, s: FormalSum, keep_identity: bool) -> FormalSum:
    """String operator of a positive root: D with ``keep_identity``, else
    d = D - 1 (which drops the k=0 term and subtracts the identity on the
    negative side).  The coroot of a simple root is its unit vector."""
    _check_sum(rs, s)
    coroot = rs.coroot_labels(root)
    step = root.weight_coords
    out: dict = {}
    for lam, coeff in s.terms.items():
        n = 0
        for cv, x in zip(coroot, lam):
            if cv:
                n += cv * x
        if n >= 0:
            for k in range(0 if keep_identity else 1, n + 1):
                mu = tuple(x - k * a for x, a in zip(lam, step))
                out[mu] = out.get(mu, 0) + coeff
        else:
            if not keep_identity:
                out[lam] = out.get(lam, 0) - coeff
            for k in range(1, -n):
                mu = tuple(x + k * a for x, a in zip(lam, step))
                out[mu] = out.get(mu, 0) - coeff
    return FormalSum(rs.rank, out)


def _reflect(rs: RootSystem, root: Root, s: FormalSum) -> FormalSum:
    """Reflect every exponent in the hyperplane of a positive root."""
    _check_sum(rs, s)
    coroot = rs.coroot_labels(root)
    step = root.weight_coords
    out = {}
    for lam, coeff in s.terms.items():
        n = sum(cv * x for cv, x in zip(coroot, lam))
        out[tuple(x - n * a for x, a in zip(lam, step))] = coeff
    return FormalSum(rs.rank, out)


def apply_D_simple(rs: RootSystem, i: int, s: FormalSum) -> FormalSum:
    """Demazure operator of the i-th simple root (string formula above)."""
    return _demazure(rs, _simple_root(rs, i), s, True)


def apply_d_simple(rs: RootSystem, i: int, s: FormalSum) -> FormalSum:
    """The identity-subtracted Demazure operator of the i-th simple root."""
    return _demazure(rs, _simple_root(rs, i), s, False)


def apply_D_root(rs: RootSystem, root: Root, s: FormalSum) -> FormalSum:
    """Demazure operator attached to an arbitrary positive root."""
    return _demazure(rs, root, s, True)


def apply_d_root(rs: RootSystem, root: Root, s: FormalSum) -> FormalSum:
    """Identity-subtracted Demazure operator of an arbitrary positive root."""
    return _demazure(rs, root, s, False)


def apply_r_simple(rs: RootSystem, i: int, s: FormalSum) -> FormalSum:
    """Reflect every exponent with the i-th simple reflection."""
    return _reflect(rs, _simple_root(rs, i), s)


def apply_r_root(rs: RootSystem, root: Root, s: FormalSum) -> FormalSum:
    """Reflect every exponent in the hyperplane of a positive root."""
    return _reflect(rs, root, s)


def apply_word(rs: RootSystem, word, s: FormalSum, flavor: str = "D") -> FormalSum:
    """Apply a word of simple-root operators, rightmost letter first.

    ``flavor`` picks the operator: "D" or "d".  Words are taken as given;
    word-indexed semantics (independence of the chosen word) only holds for
    reduced words.
    """
    if flavor == "D":
        op = apply_D_simple
    elif flavor == "d":
        op = apply_d_simple
    else:
        raise ValueError(f"unknown operator flavor {flavor!r} (use 'D' or 'd')")
    _check_sum(rs, s)
    for i in reversed(tuple(word)):
        s = op(rs, i, s)
    return s


def character_demazure(rs: RootSystem, weight) -> FormalSum:
    """Character of the irreducible highest-weight module, built by applying
    the longest element's reduced D-word to e^weight."""
    lam = check_weight(rs, weight, dominant=True)
    table = weyl_group(rs)
    return apply_word(rs, table.longest.word, FormalSum.exp(lam), flavor="D")


def character_demazure_sum(rs: RootSystem, weight) -> FormalSum:
    """Character as the sum over the whole Weyl group of the d-flavored word
    operators applied to e^weight (the identity term included).

    Each element's value is derived from its parent's in the BFS word tree:
    the reduced word of a child extends its parent's on the left, so one
    more d operator finishes the job.
    """
    lam = check_weight(rs, weight, dominant=True)
    table = weyl_group(rs)
    memo = {(): FormalSum.exp(lam)}
    total = FormalSum.zero(rs.rank)
    for el in table.elements:
        word = el.word
        if word not in memo:
            memo[word] = apply_d_simple(rs, word[0], memo[word[1:]])
        total = total.add(memo[word])
    return total
