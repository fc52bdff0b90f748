"""Demazure operators on formal sums, word-indexed compositions, and the
Demazure character formula.

The operator D attached to a positive root beta sends a single exponential
e^mu, with n the pairing of mu against beta's coroot, to

    n >= 0 :  e^mu + e^{mu - beta} + ... + e^{mu - n*beta}
    n == -1:  0
    n <= -2:  -e^{mu + beta} - ... - e^{mu + (-n-1)*beta}

extended Z-linearly.  The companion operator d = D - 1 subtracts the
identity.  Compositions act rightmost-first throughout this module.

The core writes D as one table per beta-string.  A step along the string
moves the pairing by 2, since <beta, beta^vee> = 2, so each case above is
an s_beta-symmetric segment of the string, whose radius R is the largest
pairing on it:

    n >= 0 :  +c on the points of pairing n, n-2, ..., -n: R = n;
    n <= -1:  -c on mu + beta, ..., mu + (-n-1) beta, of pairing
              n+2, ..., -n-2: R = -n-2, and no point when n = -1.

So a term adds one entry R -> +-c to its string's table, for every
positive root alike, simple or not, and the output at pairing +-r is the
sum of the entries with R >= r; a term of pairing -1 adds nothing.  A
string is keyed by its point of pairing 0 or 1, its parity.  The fill
walks each string once, from its top radius down to 0 or 1, with a
running total, and writes each radius r with a nonzero total as a mirror
pair, the point of pairing r and its s_beta image of pairing -r; at r = 0
both are the key, one point.  A table of one entry is one value on every
radius, written with no lookup.  d then subtracts the input from that
fresh output in place (`formal._accumulate`), with no second sum.  (The
cases are (f - e^{-beta} s_beta f) / (1 - e^{-beta}) on one term,
Demazure, 1974.)

The core and the reflection work on packed exponents (`formal`): each
exponent is one int, so going down a string is ``p - step``, a string's key
is an int, and a pairing reads the labels it needs from their fields.  A
root's step and coroot pairing come from its codec's root table
(`formal._Codec`), built once per codec; ``RootSystem.coroot_labels``
still checks every root an operator is given.  A tuple input is read
through a packed copy, with a codec derived from its own terms, and left
as it was; every output is a packed sum of that codec, since it lies in
the W-invariant hull the codec was sized for.  A word of operators never
builds an exponent tuple; the result builds them once, when it is read,
and stays packed.
"""

from .formal import FormalSum, _accumulate
from .rootsys import Root, RootSystem, check_weight
from .weyl import dominant_representative


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
    d = D - 1, the input subtracted from the fresh output in place.  One
    radius table per beta-string (module docstring)."""
    terms, codec, step, mask, fields, lift = _packed_root(rs, root, s)
    strings: dict = {}
    for p, coeff in terms.items():
        n = lift
        for sh, cv in fields:
            n += cv * (p >> sh & mask)
        if n == -1:
            continue  # radius -1: no point
        key = p - (n >> 1) * step
        if n < 0:
            n, coeff = -n - 2, -coeff  # n is now the radius
        if (table := strings.get(key)) is None:
            strings[key] = {n: coeff}
        else:
            table[n] = table.get(n, 0) + coeff
    out: dict = {}
    for key, table in strings.items():
        # up, of pairing r, and down = s_beta(up), of pairing -r, from r = top
        # down to 0 or 1; at r = 0 both are the key, one point written twice.
        # Every point written is a new int, not a table's key, so the
        # tables' memory can be reused
        top = max(table)
        up = key + (top >> 1) * step
        down = up - top * step
        if len(table) == 1:
            # one segment of one value on every radius
            total = table[top]
            if total:
                for _ in range((top >> 1) + 1):
                    out[up] = out[down] = total
                    up -= step
                    down += step
            continue
        get = table.get
        total = 0
        for r in range(top, -1, -2):
            total += get(r, 0)
            if total:
                out[up] = out[down] = total
            up -= step
            down += step
    if not keep_identity:
        _accumulate(out, terms, 0, -1)
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
    Only the word of u, the shortest element taking weight to w0 weight, is
    applied: the word `dominant_representative` takes from -weight to its
    dominant image, reduced, since each step makes one more positive root
    pair positively with the weight.  w0 = u w_{0,weight} with lengths
    adding, where w_{0,weight} is the longest element of weight's
    stabilizer, so D_{w0} = D_u D_{w0,weight}, and D_{w0,weight} fixes
    e^weight (Demazure, 1974).  At a regular weight u = w0.  No Weyl table
    is built."""
    lam = check_weight(rs, weight, dominant=True)
    word = dominant_representative(rs, tuple([-x for x in lam]))[1]
    return apply_word(rs, word, FormalSum.exp(lam), flavor="D")
