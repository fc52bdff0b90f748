"""Demazure operators on formal sums, word-indexed compositions, and the two
Demazure character formulas.

The operator D attached to a positive root beta sends a single exponential
e^mu, with n the pairing of mu against beta's coroot, to

    n >= 0 :  e^mu + e^{mu - beta} + ... + e^{mu - n*beta}
    n == -1:  0
    n <= -2:  -e^{mu + beta} - ... - e^{mu + (-n-1)*beta}

extended Z-linearly.  The companion operator d = D - 1 subtracts the
identity.  Compositions act rightmost-first throughout this module.

The cores compute this as (f - e^{-beta} s_beta f) / (1 - e^{-beta})
(Demazure, 1974): the numerator first, then one running sum down each
beta-string.  A term c e^mu puts +c at the string point of pairing n (mu
itself) and -c at pairing -n-2 (mu - (n+1) beta) into its string's table;
for d the +c sits one step lower, at mu - beta.  Summing the table from
the string's top down gives every output coefficient once, and the two
entries cancel where the formula gives nothing (n = -1 for D, n = 0 for d).
A string is keyed by its point of pairing 0 or 1.
"""

from operator import sub

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


def _coroot_entries(rs: RootSystem, root: Root) -> tuple:
    """(index, value) for each nonzero entry of the root's coroot labels, so
    a pairing reads only the coordinates that count."""
    return tuple((j, cv) for j, cv in enumerate(rs.coroot_labels(root)) if cv)


def _demazure(rs: RootSystem, root: Root, s: FormalSum, keep_identity: bool) -> FormalSum:
    """String operator of a positive root: D with ``keep_identity``, else
    d = D - 1.  One running sum per beta-string (module docstring)."""
    _check_sum(rs, s)
    entries = _coroot_entries(rs, root)
    step = root.weight_coords
    # level t of a string is its point key + t*beta; e^mu sits at level h
    shift = 0 if keep_identity else 1
    strings: dict = {}
    for lam, coeff in s.terms.items():
        n = 0
        for j, cv in entries:
            n += cv * lam[j]
        h = n >> 1
        key = tuple([x - h * a for x, a in zip(lam, step)]) if h else lam
        table = strings.get(key)
        if table is None:
            strings[key] = table = {}
        top, bottom = h - shift, h - n - 1
        if top != bottom:
            table[top] = table.get(top, 0) + coeff
            table[bottom] = table.get(bottom, 0) - coeff
    out: dict = {}
    for key, table in strings.items():
        total = 0
        t = None
        for level in sorted(table, reverse=True):
            if total:
                while t > level:
                    out[mu] = total
                    mu = tuple(map(sub, mu, step))
                    t -= 1
            elif t != level:
                mu = tuple([x + level * a for x, a in zip(key, step)]) if level else key
                t = level
            total += table[level]
    return FormalSum._of(rs.rank, out)


def _reflect(rs: RootSystem, root: Root, s: FormalSum) -> FormalSum:
    """Reflect every exponent in the hyperplane of a positive root."""
    _check_sum(rs, s)
    entries = _coroot_entries(rs, root)
    step = root.weight_coords
    out = {}
    for lam, coeff in s.terms.items():
        n = 0
        for j, cv in entries:
            n += cv * lam[j]
        out[tuple([x - n * a for x, a in zip(lam, step)]) if n else lam] = coeff
    return FormalSum._of(rs.rank, out)


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
