"""Well-partial-order machinery on adapted-morphism posets.

Word orders (plain subsequence embedding and the covered-subsequence
variant), the insertion-chain partial order and its total extension on the
poset of adapted split injections out of a fixed source, the analogous
pair-deletion order on row-adapted symplectic maps, and the explicit
morphisms phi realizing g = phi . f for comparable pairs.

Encodings follow the morphism normal forms: a split injection (f, fp) out of
rank d with target rank n becomes a length-n word whose letter at a pivot
position is a spade and at any other position i is the pair
(row i of f, column i of fp); a row-adapted symplectic map becomes a length-n
word of coordinate pairs, with spades marking pivot rows.  A morphism
object computes its encoding (and its total-order key) once: both are kept
in lazily filled slots of OvicMorphism and SiMorphism.

The elementary step of the chain order duplicates the letter at a non-pivot
position k to a new position l with k <= l <= n (never past the end).  Its
reverse deletes position j when the letter there is not a spade, is not last,
and either repeats an earlier letter or is immediately repeated.  The
decision procedure here searches reverse deletions from the larger word,
after the covered-subsequence test as a sound prefilter (it accepts pairs the
chain order rejects, so it is never the final answer).  The pair-deletion
order is subsequence embedding of the pair words, decided greedily.  One
layered breadth-first word search is the oracle of both orders: forward over
insertion steps, backward over pair deletions.  ORDERS pairs each ordered
category with its functions.

All positions are 0-based internally; the public insertion constructor
speaks the 1-based language of pivot-set reports.
"""

from collections import namedtuple

from .errors import PreconditionError, InvariantViolation, charge
from .matrices import Mat, lift_mats, local_parts, row_adapted
from .vic import OvicMorphism
from .si import SiMorphism, standard_form


class _Spade:
    """The formal placeholder letter for pivot positions."""

    __slots__ = ()

    def __repr__(self):
        return "spade"


SPADE = _Spade()


# ---------------------------------------------------------------------------
# word orders
# ---------------------------------------------------------------------------

def word_leq(variant, w1, w2):
    """Word order decisions over any alphabet with equality.

    variant "higman": w1 embeds into w2 as a subsequence with equal letters
    (greedy matching is exact).  variant "tilde": additionally every position
    of w2 must be covered, i.e. preceded-or-hit by a matched position holding
    an equal letter; decided by memoized search over embeddings.
    """
    w1 = tuple(w1)
    w2 = tuple(w2)
    if variant == "higman":
        i = 0
        for x in w2:
            if i < len(w1) and w1[i] == x:
                i += 1
        return i == len(w1)
    if variant == "tilde":
        n1, n2 = len(w1), len(w2)
        prefix_letters = [set()]
        for x in w1:
            nxt = set(prefix_letters[-1])
            nxt.add(x)
            prefix_letters.append(nxt)
        memo = {}

        def go(i, j):
            if j == n2:
                return i == n1
            key = (i, j)
            got = memo.get(key)
            if got is not None:
                return got
            ok = False
            if i < n1 and w1[i] == w2[j]:
                ok = go(i + 1, j + 1)
            if not ok and w2[j] in prefix_letters[i]:
                ok = go(i, j + 1)
            memo[key] = ok
            return ok

        return go(0, 0)
    raise PreconditionError("unknown word order variant %r" % (variant,))


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------

def _once(mor, slot, build):
    """The value of build(mor), computed on the first call for this morphism
    object and kept in its slot."""
    got = getattr(mor, slot, None)
    if got is None:
        got = build(mor)
        setattr(mor, slot, got)
    return got


def ovic_words(mor):
    """Per-local-factor words encoding an adapted split injection."""
    if not isinstance(mor, OvicMorphism):
        raise PreconditionError("ovic word encoding requires an adapted morphism")
    return _once(mor, "words", _ovic_words)


def _ovic_words(mor):
    n = mor.dst
    out = []
    for pivots, f_i, fp_i in zip(mor.profile.per_factor, local_parts(mor.f), local_parts(mor.fp)):
        pivots = set(pivots)
        word = tuple(
            SPADE if t in pivots else (f_i.row(t), fp_i.col(t)) for t in range(n)
        )
        out.append(word)
    return tuple(out)


def osi_words(mor):
    """Per-local-factor pair words encoding a row-adapted symplectic map."""
    _check_symplectic(mor)
    return _once(mor, "words", _osi_words)


def _osi_words(mor):
    profile = _osi_profile(mor)
    n = mor.dst
    out = []
    for pivots, f_i in zip(profile.per_factor, local_parts(mor.f)):
        pivots = set(pivots)
        word = []
        for t in range(n):
            comps = tuple(
                SPADE if r in pivots else f_i.row(r) for r in (2 * t, 2 * t + 1)
            )
            word.append(comps)
        out.append(tuple(word))
    return tuple(out)


def _check_symplectic(mor):
    if not isinstance(mor, SiMorphism):
        raise PreconditionError("expected a symplectic morphism")


def _osi_profile(mor):
    _check_symplectic(mor)
    return _once(mor, "row_profile", _row_profile)


def _row_profile(mor):
    profile = row_adapted(mor.f)
    if profile is None:
        raise PreconditionError("symplectic morphism is not row-adapted")
    return profile


# ---------------------------------------------------------------------------
# the chain order on adapted split injections
# ---------------------------------------------------------------------------

def _deletable_positions(w):
    out = []
    for j in range(len(w) - 1):
        x = w[j]
        if x is SPADE:
            continue
        if w[j + 1] == x or any(w[k] == x for k in range(j)):
            out.append(j)
    return out


def _word_chain_path(wf, wg, budget=None):
    """A list of successive deletion positions taking wg down to wf, or None.

    Deterministic: depth-first search trying smaller positions first.
    """
    if wf == wg:
        return []
    if len(wf) >= len(wg):
        return None
    spades_f = sum(1 for x in wf if x is SPADE)
    spades_g = sum(1 for x in wg if x is SPADE)
    if spades_f != spades_g:
        return None
    letters_f = set(x for x in wf if x is not SPADE)
    letters_g = set(x for x in wg if x is not SPADE)
    if letters_f != letters_g:
        return None
    if not word_leq("tilde", wf, wg):
        return None
    seen = set()
    explored = 0

    def descend(w):
        nonlocal explored
        for j in _deletable_positions(w):
            w2 = w[:j] + w[j + 1 :]
            if w2 == wf:
                return [j]
            if len(w2) == len(wf):
                continue
            if w2 in seen:
                continue
            seen.add(w2)
            explored += 1
            if explored % 256 == 0:
                charge(explored, budget, "insertion order reverse search")
            if not word_leq("higman", wf, w2):
                continue
            rest = descend(w2)
            if rest is not None:
                return [j] + rest
        return None

    return descend(wg)


def _ovic_pair_check(f, g):
    if not isinstance(f, OvicMorphism) or not isinstance(g, OvicMorphism):
        raise PreconditionError("insertion order compares adapted morphisms")
    if f.ring != g.ring:
        raise PreconditionError("morphisms live over different rings")
    if f.src != g.src:
        raise PreconditionError("insertion order requires a shared source rank")


def ovic_preceq(f, g, budget=None):
    """The insertion-chain partial order, decided on word encodings by
    reverse deletion search (componentwise over local factors)."""
    _ovic_pair_check(f, g)
    for wf, wg in zip(ovic_words(f), ovic_words(g)):
        if _word_chain_path(wf, wg, budget) is None:
            return False
    return True


def _layered_bfs(words_f, words_g, steps, upward, budget, what):
    """The search oracle of both orders, per local factor: breadth-first
    search one step per layer until the other word's length is reached,
    either upward from the smaller word, keeping only the words that still
    embed into the larger one, or downward from the larger word."""
    for wf, wg in zip(words_f, words_g):
        if wf == wg:
            continue
        if len(wf) >= len(wg):
            return False
        start, goal = (wf, wg) if upward else (wg, wf)
        frontier = {start}
        explored = 0
        while frontier and len(next(iter(frontier))) != len(goal):
            frontier = {w2 for w in frontier for w2 in steps(w)}
            if upward:
                frontier = {w2 for w2 in frontier if word_leq("higman", w2, wg)}
            explored += len(frontier)
            charge(explored, budget, what)
        if goal not in frontier:
            return False
    return True


def _insertions(w):
    return [w[:l] + (x,) + w[l:] for k, x in enumerate(w) if x is not SPADE for l in range(k, len(w))]


def ovic_preceq_bfs(f, g, budget=None):
    """Oracle: forward breadth-first search over single insertion steps."""
    _ovic_pair_check(f, g)
    return _layered_bfs(
        ovic_words(f), ovic_words(g), _insertions, True, budget, "insertion order forward search"
    )


# ---------------------------------------------------------------------------
# insertion morphisms
# ---------------------------------------------------------------------------

def _insertion_local(ring, n, k0, l0, pivots0, v):
    """The insertion morphism over a local ring, 0-based.

    phi' is the identity with the spread of v inserted as column l0; phi has
    its single free row e_{k0} at position l0, the other rows adjusted so
    that phi' . phi = id.
    """
    vhat = [ring.zero] * n
    for i, s in enumerate(pivots0):
        vhat[s] = v[i]
    phip = Mat.identity(ring, n).insert_col(l0, vhat)
    rows = []
    for t in range(n + 1):
        if t == l0:
            rows.append(tuple(ring.one if j == k0 else ring.zero for j in range(n)))
            continue
        orig = t if t < l0 else t - 1
        row = [ring.one if j == orig else ring.zero for j in range(n)]
        if vhat[orig]:
            row[k0] = ring.sub(row[k0], vhat[orig])
        rows.append(tuple(row))
    phi = Mat.from_rows(ring, rows)
    return phi, phip


def ovic_insertion(ring, n, k, l, pivots, v):
    """The elementary insertion morphism R^n -> R^{n+1} over a local ring.

    All of k, l and the pivot set are 1-based here, matching the reported
    pivot profiles.  v must have non-unit entries at every index beyond the
    number of pivots lying strictly below l.
    """
    if not ring.is_local:
        raise PreconditionError("the insertion construction works one local factor at a time")
    if not all(isinstance(x, int) for x in (k, l, n)) or not (1 <= k <= l <= n):
        raise PreconditionError("need integers 1 <= k <= l <= n, got k=%r l=%r n=%r" % (k, l, n))
    try:
        pivots, v = tuple(pivots), tuple(ring.check_element(x) for x in v)
    except TypeError:
        raise PreconditionError("pivots and v must be sequences, got %r and %r" % (pivots, v))
    if any(not isinstance(s, int) or not (1 <= s <= n) for s in pivots) or len(set(pivots)) != len(pivots):
        raise PreconditionError("bad pivot set %r for target rank %d" % (pivots, n))
    pivots = tuple(sorted(pivots))
    if len(v) != len(pivots):
        raise PreconditionError("v must have one entry per pivot")
    lhat = sum(1 for s in pivots if s < l)
    for i in range(lhat, len(v)):
        if ring.is_unit(v[i]):
            raise PreconditionError(
                "entry %d of v must be a non-unit (pivot %d sits at or above the insertion point)"
                % (i + 1, pivots[i])
            )
    phi, phip = _insertion_local(ring, n, k - 1, l - 1, [s - 1 for s in pivots], v)
    return OvicMorphism(phi, phip, check=True)


def ovic_phi_for(f, g, budget=None):
    """A morphism phi with g = phi . f, built by replaying the insertion
    chain from f up to g one local factor at a time."""
    _ovic_pair_check(f, g)
    ring = f.ring
    nf = f.dst
    if f == g:
        e = Mat.identity(ring, nf)
        return OvicMorphism(e, e, check=False)
    words_f = ovic_words(f)
    words_g = ovic_words(g)
    phis, phips = [], []
    for word, word_g, f_cur, fp_cur in zip(words_f, words_g, local_parts(f.f), local_parts(f.fp)):
        path = _word_chain_path(word, word_g, budget)
        if path is None:
            raise PreconditionError("morphisms are not related by the insertion order")
        fac = f_cur.ring
        phi_total = Mat.identity(fac, nf)
        phip_total = Mat.identity(fac, nf)
        # path[t] deletes a position from the (t+1)-st word counted from g;
        # replaying upward applies the insertions in reverse order.
        uppers = [word_g]
        for j in path[:-1]:
            w = uppers[-1]
            uppers.append(w[:j] + w[j + 1 :])
        for step in range(len(path) - 1, -1, -1):
            l0 = path[step]
            target = uppers[step]
            letter = target[l0]
            k0 = None
            for cand in range(min(l0, len(word) - 1) + 1):
                if word[cand] is not SPADE and word[cand] == letter and cand <= l0:
                    k0 = cand
                    break
            if k0 is None:
                raise InvariantViolation("no duplication source for a recorded insertion")
            pivots0 = sorted(t for t in range(len(word)) if word[t] is SPADE)
            v = fp_cur.col(k0)
            phi, phip = _insertion_local(fac, len(word), k0, l0, pivots0, v)
            phi_total = phi.mul(phi_total)
            phip_total = phip_total.mul(phip)
            f_cur = phi.mul(f_cur)
            fp_cur = fp_cur.mul(phip)
            word = word[:l0] + (letter,) + word[l0:]
            if word != target:
                raise InvariantViolation("insertion replay diverged from the deletion path")
        phis.append(phi_total)
        phips.append(phip_total)
    mor = OvicMorphism(lift_mats(ring, phis), lift_mats(ring, phips), check=True)
    if mor.f.mul(f.f) != g.f or f.fp.mul(mor.fp) != g.fp:
        raise InvariantViolation("insertion chain morphism does not carry f to g")
    return mor


# ---------------------------------------------------------------------------
# total orders
# ---------------------------------------------------------------------------

def _key_cmp(kf, kg):
    """-1, 0 or 1 comparing two staged keys."""
    return (kf > kg) - (kf < kg)


def ovic_total_key(mor):
    """The staged comparison key: target rank, then per local factor the
    pivot set, the columns of fp, and the free rows of f."""
    if not isinstance(mor, OvicMorphism):
        raise PreconditionError("total order keys require adapted morphisms")
    return _once(mor, "total_key", _ovic_total_key)


def _ovic_total_key(mor):
    n = mor.dst
    stages = []
    for pivots, f_i, fp_i in zip(mor.profile.per_factor, local_parts(mor.f), local_parts(mor.fp)):
        cols = tuple(fp_i.col(t) for t in range(n))
        free = tuple(f_i.row(t) for t in range(n) if t not in set(pivots))
        stages.append((pivots, cols, free))
    return (n, tuple(stages))


def ovic_total_cmp(f, g):
    _ovic_pair_check(f, g)
    return _key_cmp(ovic_total_key(f), ovic_total_key(g))


def osi_total_key(mor):
    """Rank, then per local factor the pivot rows and the row sequence."""
    _check_symplectic(mor)
    return _once(mor, "total_key", _osi_total_key)


def _osi_total_key(mor):
    profile = _osi_profile(mor)
    stages = []
    for pivots, f_i in zip(profile.per_factor, local_parts(mor.f)):
        rows = tuple(f_i.row(r) for r in range(f_i.rows))
        stages.append((pivots, rows))
    return (mor.dst, tuple(stages))


def _osi_pair_check(f, g):
    if not isinstance(f, SiMorphism) or not isinstance(g, SiMorphism):
        raise PreconditionError("pair deletion order compares symplectic morphisms")
    if f.ring != g.ring:
        raise PreconditionError("morphisms live over different rings")
    if f.src_form != g.src_form:
        raise PreconditionError("pair deletion order requires a shared source form")
    if f.dst_form != standard_form(f.ring, f.dst) or g.dst_form != standard_form(g.ring, g.dst):
        raise PreconditionError("pair deletion order requires standard targets")


def osi_total_cmp(f, g):
    _osi_pair_check(f, g)
    return _key_cmp(osi_total_key(f), osi_total_key(g))


# ---------------------------------------------------------------------------
# the pair-deletion order on row-adapted symplectic maps
# ---------------------------------------------------------------------------

def osi_preceq(f, g):
    """True when f arises from g by deleting coordinate pairs disjoint from
    the pivot rows, independently in every local factor.

    That is a subsequence embedding of the pair words, which greedy
    matching decides: matched letters carry equal spades, and both words
    carry one spade per pivot row, so no deleted pair holds a pivot row.
    """
    _osi_pair_check(f, g)
    return all(word_leq("higman", wf, wg) for wf, wg in zip(osi_words(f), osi_words(g)))


def _pair_deletions(w):
    return [w[:j] + w[j + 1 :] for j in range(len(w)) if SPADE not in w[j]]


def osi_preceq_bfs(f, g, budget=None):
    """Oracle: breadth-first search deleting one spade-free pair letter at a
    time from the larger word."""
    _osi_pair_check(f, g)
    return _layered_bfs(osi_words(f), osi_words(g), _pair_deletions, False, budget, "pair deletion search")


def _greedy_unmatched(wf, wg):
    """Pair positions of wg left out by the earliest subsequence embedding
    of wf, or None when no embedding exists."""
    i = 0
    unmatched = []
    for j, x in enumerate(wg):
        if i < len(wf) and wf[i] == x:
            i += 1
        else:
            unmatched.append(j)
    return unmatched if i == len(wf) else None


def osi_insertion_phi(f, g):
    """The row-adapted symplectic phi with g = phi . f for pair-deletion
    comparable morphisms: re-inserted positions carry the rows of g spread
    over the pivot rows of f, kept positions carry standard basis rows.

    The realized deletion set is the complement of the earliest subsequence
    embedding of the smaller pair word, so the canonical inclusion pair gets
    the canonical inclusion back.
    """
    _osi_pair_check(f, g)
    ring = f.ring
    profile_f = _osi_profile(f)
    words_f = osi_words(f)
    words_g = osi_words(g)
    mats = []
    parts = zip(profile_f.per_factor, words_f, words_g, local_parts(f.f), local_parts(g.f))
    for pivots_f, word_f, word_g, f_i, g_i in parts:
        fac = f_i.ring
        subset = _greedy_unmatched(word_f, word_g)
        if subset is None:
            raise PreconditionError("morphisms are not related by pair deletion")
        deleted = set()
        for t in subset:
            deleted.update((2 * t, 2 * t + 1))
        if g_i.delete_rows(sorted(deleted)) != f_i:
            raise InvariantViolation("pair word embedding does not match the matrices")
        kept = [r for r in range(2 * g.dst) if r not in deleted]
        kept_pos = {r: k for k, r in enumerate(kept)}
        rows = []
        for r in range(2 * g.dst):
            if r in deleted:
                spread = [fac.zero] * (2 * f.dst)
                grow = g_i.row(r)
                for t, s in enumerate(pivots_f):
                    spread[s] = grow[t]
                rows.append(tuple(spread))
            else:
                k = kept_pos[r]
                rows.append(tuple(fac.one if j == k else fac.zero for j in range(2 * f.dst)))
        mats.append(Mat.from_rows(fac, rows))
    phi_mat = lift_mats(ring, mats)
    phi = SiMorphism(phi_mat, standard_form(ring, f.dst), standard_form(ring, g.dst), check=True)
    if row_adapted(phi_mat) is None:
        raise InvariantViolation("insertion phi is not row-adapted")
    if phi_mat.mul(f.f) != g.f:
        raise InvariantViolation("insertion phi does not carry f to g")
    return phi


# ---------------------------------------------------------------------------
# the order table
# ---------------------------------------------------------------------------

Order = namedtuple("Order", "preceq preceq_bfs total_key total_cmp phi")

ORDERS = {
    "OVIC": Order(ovic_preceq, ovic_preceq_bfs, ovic_total_key, ovic_total_cmp, ovic_phi_for),
    "OSI": Order(osi_preceq, osi_preceq_bfs, osi_total_key, osi_total_cmp, osi_insertion_phi),
}


def order_of(cat):
    """The order functions of an ordered category (OVIC or OSI)."""
    order = ORDERS.get(cat.name)
    if order is None:
        raise PreconditionError("order operations require the OVIC or OSI category, not %s" % cat.name)
    return order
