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

Both cores work on packed exponents (`formal`): each exponent is one int,
so going down a string is ``p - step``, a string's key is an int, and a
pairing reads the labels it needs from their fields.  A root's step and
coroot pairing come from its codec's root table (`formal._Codec`), built
once per codec; ``RootSystem.coroot_labels`` still checks every root an
operator is given.  A tuple input is read through a packed copy, with a
codec derived from its own terms, and left as it was; every output is a
packed sum of that codec, since it lies in the W-invariant hull the codec
was sized for.  A word of operators never builds an exponent tuple; the
result builds them once, when it is read, and stays packed.
"""

from functools import reduce

from .formal import FormalSum
from .rootsys import Root, RootSystem, check_weight
from .weyl import dominant_representative, weyl_group


def _check_sum(rs: RootSystem, s: FormalSum) -> None:
    if not isinstance(s, FormalSum):
        raise TypeError(f"expected a FormalSum, got {type(s).__name__}")
    if s.rank != rs.rank:
        raise ValueError(f"sum has rank {s.rank}, algebra {rs.name} has rank {rs.rank}")


def _packed_root(rs: RootSystem, root: Root, s: FormalSum) -> tuple:
    """What a core needs to act with ``root`` on ``s``: its packed terms and
    codec, and from the codec's root table (`formal._Codec`) the packed step
    of the root, the field mask, and the pairing against the root's coroot.
    ``rs.coroot_labels`` still runs on every call, as the root check: a root
    foreign to ``rs`` raises ValueError before the table is read."""
    _check_sum(rs, s)
    terms, codec = s._packed_for(rs)
    rs.coroot_labels(root)
    step, fields, lift, _height = codec.roots[root.root_coords]
    return terms, codec, step, codec.mask, fields, lift


def _demazure(rs: RootSystem, root: Root, s: FormalSum, keep_identity: bool) -> FormalSum:
    """String operator of a positive root: D with ``keep_identity``, else
    d = D - 1.  One running sum per beta-string (module docstring)."""
    terms, codec, step, mask, fields, lift = _packed_root(rs, root, s)
    # level t of a string is its key + t*beta; e^mu sits at level h
    shift = 0 if keep_identity else 1
    strings: dict = {}
    for p, coeff in terms.items():
        n = lift
        for sh, cv in fields:
            n += cv * (p >> sh & mask)
        h = n >> 1
        key = p - h * step
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
        for level in sorted(table, reverse=True):
            if total:
                # the levels from the one above down to this one, exclusive
                for mu in range(key + upper * step, key + level * step, -step):
                    out[mu] = total
            upper = level
            total += table[level]
    return FormalSum._of(rs.rank, out, codec)


def _reflect(rs: RootSystem, root: Root, s: FormalSum) -> FormalSum:
    """Reflect every exponent in the hyperplane of a positive root."""
    terms, codec, step, mask, fields, lift = _packed_root(rs, root, s)
    out = {}
    for p, coeff in terms.items():
        n = lift
        for sh, cv in fields:
            n += cv * (p >> sh & mask)
        out[p - n * step] = coeff
    return FormalSum._of(rs.rank, out, codec)


def apply_D_simple(rs: RootSystem, i: int, s: FormalSum) -> FormalSum:
    """Demazure operator of the i-th simple root (string formula above)."""
    return _demazure(rs, rs.simple_root(i), s, True)


def apply_d_simple(rs: RootSystem, i: int, s: FormalSum) -> FormalSum:
    """The identity-subtracted Demazure operator of the i-th simple root."""
    return _demazure(rs, rs.simple_root(i), s, False)


def apply_D_root(rs: RootSystem, root: Root, s: FormalSum) -> FormalSum:
    """Demazure operator attached to an arbitrary positive root."""
    return _demazure(rs, root, s, True)


def apply_d_root(rs: RootSystem, root: Root, s: FormalSum) -> FormalSum:
    """Identity-subtracted Demazure operator of an arbitrary positive root."""
    return _demazure(rs, root, s, False)


def apply_r_simple(rs: RootSystem, i: int, s: FormalSum) -> FormalSum:
    """Reflect every exponent with the i-th simple reflection."""
    return _reflect(rs, rs.simple_root(i), s)


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
    """Character of the irreducible highest-weight module, D_{w0} e^weight.
    The word `dominant_representative` takes from -rho to rho is w0's (only
    w0 maps -rho to rho), and reduced: each step makes one more positive
    root pair positively with the weight.  No Weyl table is built."""
    lam = check_weight(rs, weight, dominant=True)
    w0_word = dominant_representative(rs, tuple(-x for x in rs.weyl_vector))[1]
    return apply_word(rs, w0_word, FormalSum.exp(lam), flavor="D")


def character_demazure_sum(rs: RootSystem, weight) -> FormalSum:
    """Character as the sum over the whole Weyl group of the d-flavored word
    operators applied to e^weight (the identity term included).

    Each element's value is derived from its parent's in the BFS word tree:
    the reduced word of a child extends its parent's on the left, so one
    more d operator finishes the job.  The memo starts from e^weight
    packed, so every value shares its codec and the sum adds packed.
    """
    lam = check_weight(rs, weight, dominant=True)
    group = weyl_group(rs)
    memo = {(): FormalSum._of(rs.rank, *FormalSum.exp(lam)._packed_for(rs))}
    for el in group[1:]:  # group[0] is the identity
        word = el.word
        memo[word] = apply_d_simple(rs, word[0], memo[word[1:]])
    return reduce(FormalSum.add, memo.values())
