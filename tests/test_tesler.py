import json
import random
import time
from collections import Counter
from functools import lru_cache
from itertools import islice, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teslab import tesler
from teslab.macdonald import tes_via_theorem
from teslab.qt_algebra import M, ONE, Q, T, ZERO, LaurentPolyQT, qt_int
from teslab.tesler import (
    TeslerMatrix,
    _bound,
    _encode,
    _from_e,
    _pack,
    _packed_rows,
    _row_groups,
    _slot_sizes,
    _span,
    _tes_cached,
    _unpack,
    compositions,
    count_tesler,
    enumerate_tesler,
    parse_hooks,
    tes,
)

MIXED_SIGN_4X4 = TeslerMatrix([
    [0, 1, 0, 2],
    [0, -1, -1, 0],
    [0, 0, 1, 0],
    [0, 0, 0, 1],
])


class TestValidation:
    def test_mixed_sign_row(self):
        with pytest.raises(ValueError, match="row not sign-homogeneous"):
            TeslerMatrix([[1, -1], [0, 1]])

    def test_zero_row(self):
        with pytest.raises(ValueError, match="zero row"):
            TeslerMatrix([[0, 0], [0, 1]])

    def test_lower_triangle(self):
        with pytest.raises(ValueError, match="not upper triangular"):
            TeslerMatrix([[1, 0], [1, 1]])

    def test_identity_valid(self):
        assert TeslerMatrix([[1, 0], [0, 1]]).hooks() == (1, 1)

    def test_json_roundtrip(self):
        blob = json.dumps(MIXED_SIGN_4X4.to_json())
        assert TeslerMatrix(json.loads(blob)["rows"]) == MIXED_SIGN_4X4


class TestHooks:
    def test_mixed_sign_example(self):
        assert MIXED_SIGN_4X4.hooks() == (3, -3, 2, -1)

    def test_identity(self):
        assert TeslerMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).hooks() == (1, 1, 1)

    def test_recursion_illustration_recomputed(self):
        # direct application of the definition, resolving the open question:
        # the 3x3 matrix from the recursion illustration has hooks (3,-5,2)
        U = TeslerMatrix([[0, 3, 0], [0, -1, -1], [0, 0, 1]])
        assert U.hooks() == (3, -5, 2)

    def test_hooks_parse(self):
        assert parse_hooks("2,0,-3,1") == (2, 0, -3, 1)
        with pytest.raises(ValueError):
            parse_hooks("1,x")

    def test_hooks_length_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(tesler, "HOOKS_LENGTH_BUDGET", 4)
        assert parse_hooks("2,0,-3,1") == (2, 0, -3, 1)
        with pytest.raises(ValueError, match="5 entries, over the length budget of 4"):
            parse_hooks("2,0,-3,1,1")

    def test_hooks_length_budget_sits_far_from_both_ends(self):
        # CI's longest --hooks has 18 entries; about 600 overflow compositions
        assert 2 * 18 <= tesler.HOOKS_LENGTH_BUDGET <= 600 // 4


class TestEnumeration:
    def test_alpha_11(self):
        got = list(enumerate_tesler((1, 1)))
        assert [m.rows for m in got] == [((1, 0), (0, 1)), ((0, 1), (0, 2))]

    def test_alpha_20(self):
        got = {m.rows for m in enumerate_tesler((2, 0))}
        assert got == {((1, 1), (0, 1)), ((0, 2), (0, 2))}

    def test_alpha1_zero_empty(self):
        assert list(enumerate_tesler((0, 1))) == []

    def test_hooks_invariant(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 4)
            alpha = tuple(rng.randint(-2, 2) for _ in range(n))
            for U in enumerate_tesler(alpha):
                assert U.hooks() == alpha
                TeslerMatrix(U.rows)  # revalidates all three conditions

    def test_known_counts_for_ones(self):
        # |T(1^n)| = 1, 2, 7, 40, 357, 4820, 96030 for n = 1..7, enumerated up to n = 5
        for n, count in [(1, 1), (2, 2), (3, 7), (4, 40), (5, 357), (6, 4820), (7, 96030)]:
            assert count_tesler((1,) * n) == count
            if n <= 5:
                assert sum(1 for _ in enumerate_tesler((1,) * n)) == count

    def test_count_matches_enumeration(self):
        rng = random.Random(41)
        vectors = [()] + [tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 5)))
                          for _ in range(60)]
        for alpha in vectors:
            assert count_tesler(alpha) == sum(1 for _ in enumerate_tesler(alpha))


def _enumerate_by_colsum(alpha, permutational=False):
    """The slow definition of the stream's order: one generator per row, the
    total of row i recomputed from a running list of column sums, updated
    and undone around each row."""
    rows_of = tesler._single_rows if permutational else compositions
    alpha = tuple(alpha)
    n = len(alpha)
    if n == 0:
        return
    colsum = [0] * n

    def rec(i, rows):
        s = alpha[i] + colsum[i]
        if s == 0:
            return
        sign = 1 if s > 0 else -1
        for comp in rows_of(abs(s), n - i):
            row = (0,) * i + tuple(sign * v for v in comp)
            if i == n - 1:
                yield TeslerMatrix(rows + (row,))
                continue
            for j in range(i + 1, n):
                colsum[j] += row[j]
            yield from rec(i + 1, rows + (row,))
            for j in range(i + 1, n):
                colsum[j] -= row[j]

    yield from rec(0, ())


class TestEnumerationOrder:
    VECTORS = ([alpha for length in range(5) for alpha in product(range(-2, 3), repeat=length)]
               + [(1,) * 6, (2, 0, 3, 1), (-2, 1, 2, -1)])

    @pytest.mark.parametrize("permutational", [False, True], ids=["all", "permutational"])
    def test_stream_equals_the_column_sum_recursion_in_order(self, permutational):
        for alpha in self.VECTORS:
            got = [U.rows for U in enumerate_tesler(alpha, permutational)]
            assert got == [U.rows for U in _enumerate_by_colsum(alpha, permutational)], alpha


class TestCountBudget:
    # (1,1,1) tries the 3 rows of its first row, then 2 rows at (1, 1),
    # 3 at (2, 1) and 2 at (1, 2); with permutational rows, 3 + 2 + 2 + 2
    COSTS = {False: 10, True: 9}

    @pytest.mark.parametrize("permutational", [False, True], ids=["all", "permutational"])
    def test_budget_is_inclusive(self, monkeypatch, permutational):
        cost = self.COSTS[permutational]
        monkeypatch.setattr(tesler, "COUNT_ROWS_BUDGET", cost)
        assert count_tesler((1, 1, 1), permutational) == (6 if permutational else 7)
        monkeypatch.setattr(tesler, "COUNT_ROWS_BUDGET", cost - 1)
        with pytest.raises(ValueError, match=f"more than {cost - 1} rows"):
            count_tesler((1, 1, 1), permutational)

    def test_refused_before_the_row_set_is_built(self):
        # C(10^6 + 2, 2) compositions would take hours to build
        before = compositions.cache_info().currsize
        with pytest.raises(ValueError, match=r"\(1000000, 1, 1\) tries more than"):
            count_tesler((10**6, 1, 1))
        assert compositions.cache_info().currsize == before


class TestPermutational:
    def test_alpha_11_all_permutational(self):
        assert (sorted(m.rows for m in enumerate_tesler((1, 1), permutational=True))
                == sorted(m.rows for m in enumerate_tesler((1, 1))))

    def test_known_permutational_member(self):
        target = TeslerMatrix([[0, 2, 0, 0], [0, 0, 0, 2], [0, 0, 0, 3], [0, 0, 0, 6]])
        assert target in list(enumerate_tesler((2, 0, 3, 1), permutational=True))

    def test_count_1_1_1(self):
        assert sum(1 for _ in enumerate_tesler((1, 1, 1), permutational=True)) == 6

    def test_count_matches_enumeration(self):
        rng = random.Random(43)
        vectors = [()] + [tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 5)))
                          for _ in range(60)]
        for alpha in vectors:
            assert (count_tesler(alpha, permutational=True)
                    == sum(1 for _ in enumerate_tesler(alpha, permutational=True)))

    def test_count_ones_is_factorial(self):
        # each row of a permutational matrix with hooks 1^n picks one of the
        # n - i places left of it: n! matrices, counted without walking them
        assert count_tesler((1,) * 12, permutational=True) == 479_001_600

    def test_subset_of_enumeration(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 4)
            alpha = tuple(rng.randint(-2, 2) for _ in range(n))
            full = {m.rows for m in enumerate_tesler(alpha)}
            perm = {m.rows for m in enumerate_tesler(alpha, permutational=True)}
            assert perm == {r for r in full
                            if all(sum(1 for v in row if v) == 1 for r2 in [r] for row in r2)}

    def test_stream_is_the_filtered_enumeration_in_order(self):
        # the permutational row set must keep the order of the full stream,
        # and the count must walk the same rows
        rng = random.Random(47)
        vectors = [tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 5)))
                   for _ in range(300)]
        for alpha in vectors + [(1,) * 7, (-1,) * 6, (2, 0, 3, 1)]:
            perm = list(enumerate_tesler(alpha, permutational=True))
            assert perm == [m for m in enumerate_tesler(alpha)
                            if all(sum(1 for v in row if v) == 1 for row in m.rows)], alpha
            assert count_tesler(alpha, permutational=True) == len(perm), alpha


class TestWeight:
    def test_identity_weight(self):
        assert TeslerMatrix([[1, 0], [0, 1]]).weight() == ONE

    def test_second_matrix(self):
        assert TeslerMatrix([[0, 1], [0, 2]]).weight() == Q + T

    def test_mixed_sign_4x4(self):
        qt = Q * T
        expected = -(M * M) * (Q + T) * (qt ** -2)
        assert MIXED_SIGN_4X4.weight() == expected

    def test_negation_relation(self):
        # wt(-U) = (-1/qt)^n * bar(wt(U))
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 4)
            alpha = tuple(rng.randint(-2, 2) for _ in range(n))
            for U in enumerate_tesler(alpha):
                lhs = TeslerMatrix([[-v for v in row] for row in U.rows]).weight()
                rhs = (-(Q * T) ** -1) ** n * U.weight().bar()
                assert lhs == rhs

    def test_t1_vanishes_unless_permutational(self):
        for U in enumerate_tesler((1, 1, 1)):
            w1 = U.weight().specialize(t=1)
            if all(sum(1 for v in row if v) == 1 for row in U.rows):
                assert not w1.is_zero()
            else:
                assert w1.is_zero()

    def test_t1_reduces_to_permutational_sum(self):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(1, 4)
            alpha = tuple(rng.randint(-2, 2) for _ in range(n))
            perm_sum = LaurentPolyQT()
            for U in enumerate_tesler(alpha, permutational=True):
                perm_sum = perm_sum + U.weight().specialize(t=1)
            assert tes(alpha).specialize(t=1) == perm_sum


class TestTes:
    def test_single_one(self):
        assert tes((1,)) == ONE

    def test_one_one(self):
        assert tes((1, 1)) == ONE + Q + T

    def test_two_zero(self):
        expected = (Q + T) * (Q + T) - M
        assert tes((2, 0)) == expected
        # cross-check against the binomial closed form at k=1
        assert tes((2, 0)) == qt_int(3) + qt_int(2) - qt_int(1)

    def test_leading_zero_vanishes(self):
        assert tes((0, 1)).is_zero()
        assert tes((0, -2, 1)).is_zero()

    def test_matches_weight_sum(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 4)
            alpha = tuple(rng.randint(-2, 2) for _ in range(n))
            total = LaurentPolyQT()
            for U in enumerate_tesler(alpha):
                total = total + U.weight()
            assert tes(alpha) == total

    def test_q_t_symmetry(self):
        # every factor of a weight is invariant under exchanging q and t
        rng = random.Random(37)
        for _ in range(25):
            n = rng.randint(1, 4)
            alpha = tuple(rng.randint(-2, 2) for _ in range(n))
            value = tes(alpha)
            assert value.swap_qt() == value

    # vectors with more matrices than this are skipped to keep the brute-force
    # sum to about a second; about 1% of uniformly drawn vectors exceed it
    ORACLE_MATRICES = 2500

    @given(st.lists(st.integers(-2, 2), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_oracle(self, alpha):
        matrices = list(islice(enumerate_tesler(alpha), self.ORACLE_MATRICES + 1))
        assume(len(matrices) <= self.ORACLE_MATRICES)
        total = LaurentPolyQT()
        for U in matrices:
            total = total + U.weight()
        assert tes(alpha) == total

    @given(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_matches_macdonald_route(self, alpha):
        assert tes(alpha) == tes_via_theorem(alpha)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_ones_at_q_t_one(self, n):
        # |parking functions of length n| = (n+1)^(n-1)
        assert tes((1,) * n).specialize(q=1, t=1) == (n + 1) ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_negated_ones(self, n):
        # Lemma 4.7: tes(-alpha) = (-1/(qt))^n * bar(tes(alpha))
        qt_inv = LaurentPolyQT.monomial(-1, -1, -1)
        assert tes((-1,) * n) == qt_inv ** n * tes((1,) * n).bar()

    def test_negation_seeded(self):
        # tes(-alpha) = (-1)^n (qt)^(-n) * tes(alpha)(1/q, 1/t), from
        # weight(-U) = (-1)^n (qt)^(-n) * bar(weight(U)); in the packed walk
        # the negative rows are derived from the positive ones through their
        # e2-offset, so an offset one slot off breaks it
        for alpha in _seeded_vectors(89, 150, 6):
            n = len(alpha)
            assert (tes(tuple(-x for x in alpha))
                    == LaurentPolyQT.monomial((-1) ** n, -n, -n) * tes(alpha).bar()), alpha


def _row_weight(row):
    """The weight of one row by the per-composition formula: M^(nz-1), the
    qt_int of each nonzero entry, and (-1)^(nz-1) when the row is positive."""
    nz = sum(1 for v in row if v)
    weight = M ** (nz - 1)
    if sum(row) > 0 and nz % 2 == 0:
        weight = -weight
    for v in row:
        if v:
            weight = weight * qt_int(v)
    return weight


def _qt_weight(parts):
    """The weight of a positive row with nonzero entries parts as the (q,t)
    product (-1)^(nz-1) M^(nz-1) prod qt_int(a)."""
    weight = M ** (len(parts) - 1) * (-1) ** (len(parts) - 1)
    for v in parts:
        weight = weight * qt_int(v)
    return weight


E1, E2 = Q + T, Q * T


def _qt_of(terms):
    """The (q,t) polynomial of e-basis terms {(i, j): c}, by substituting
    e1 = q + t and e2 = qt: the slow definition of tesler._from_e."""
    out = ZERO
    for (i, j), c in terms.items():
        out = out + E1 ** i * E2 ** j * c
    return out


def _e_of(poly):
    """The e-basis terms of a symmetric (q,t) polynomial: peel off a term
    q^x t^y with the largest x - y, the leading term of e1^(x-y) e2^y."""
    rest, out = poly, {}
    while rest:
        x, y = max(rest.terms, key=lambda m: m[0] - m[1])
        c = rest.terms[(x, y)]
        out[(x - y, y)] = c
        rest = rest - E1 ** (x - y) * E2 ** y * c
    return out


@lru_cache(maxsize=None)
def _first_rows(s, width):
    """(row weight, tails), one pair per multiset of nonzero entries of a row
    of total s and width entries, in the order of their first compositions:
    tails holds the entries right of the diagonal of every composition of
    |s| into width parts with that multiset, and the weight is the
    per-composition formula on the group's first row.  The slow definition
    of tesler._row_groups: it sorts every composition to find its group."""
    sign = 1 if s > 0 else -1
    groups: dict = {}
    for comp in compositions(abs(s), width):
        parts = tuple(sorted(v for v in comp if v))
        groups.setdefault(parts, []).append(tuple(sign * v for v in comp))
    return tuple((_row_weight(rows[0]), tuple(row[1:] for row in rows))
                 for rows in groups.values())


def _tail_code(tail):
    """The signed state code of the entries right of the diagonal."""
    return sum(t << 16 * j for j, t in enumerate(tail))


class TestFirstRows:
    @pytest.mark.parametrize("s", [1, 2, 3, 4, -1, -2, -3, -4])
    def test_groups_match_per_composition_rows(self, s):
        sign = 1 if s > 0 else -1
        for width in range(1, 6):
            groups = _first_rows(s, width)
            assert (Counter(tail for _, tails in groups for tail in tails)
                    == Counter(tuple(sign * v for v in comp[1:])
                               for comp in compositions(abs(s), width)))
            multisets = set()
            for weight, tails in groups:
                rows = [(s - sum(tail),) + tail for tail in tails]
                assert all(_row_weight(row) == weight for row in rows)
                multisets |= {tuple(sorted(v for v in row if v)) for row in rows}
            # one group per multiset of entries: a partition of |s| into at most width parts
            assert len(multisets) == len(groups)


class TestRowGroups:
    """_row_groups builds its codes without a tuple or a sort per row, and
    derives the negative rows from the positive ones: it must equal the
    grouping of every composition, group for group and tail for tail."""

    @pytest.mark.parametrize("s", [v for m in range(1, 10) for v in (m, -m)])
    def test_matches_the_grouped_compositions(self, s):
        for width in range(1, 8):
            expected = [tuple(map(_tail_code, tails)) for _, tails in _first_rows(s, width)]
            assert [tails for _, _, tails in _row_groups(s, width)] == expected
            for (parts, _, _), (_, tails) in zip(_row_groups(s, width), _first_rows(s, width)):
                first_row = (s - sum(tails[0]),) + tails[0]
                assert parts == tuple(sorted(abs(v) for v in first_row if v))

    @pytest.mark.parametrize("s", [v for m in range(1, 8) for v in (m, -m)])
    def test_weights_are_the_direct_products(self, s):
        # each group weight, built in the e-basis and mapped back to (q,t),
        # is the (q,t) product of its entries; with the negative factor
        # -e2^s it is the per-composition product; span and packed forms
        # are those of that e-basis value at any (K, W)
        factor = LaurentPolyQT.monomial(-1, 0, s) if s < 0 else ONE
        for width in range(2, 6):
            groups = _row_groups(s, width)
            for parts, _, _ in groups:
                assert _qt_of(tesler._row_weight(parts).terms) == _qt_weight(parts)
            weights = [tesler._row_weight(parts) * factor for parts, _, _ in groups]
            assert ([_qt_of(x.terms) for x in weights]
                    == [weight for weight, _ in _first_rows(s, width)])
            assert [span for _, span, _ in groups] == list(map(_span, weights))
            for k, w in [(8, 4), (16, 12), (24, 40)]:
                assert list(_packed_rows(s, width, k, w)) == [_pack(x, k, w) for x in weights]


class TestCompositions:
    def test_colex_order(self):
        assert compositions(2, 2) == ((2, 0), (1, 1), (0, 2))

    def test_empty(self):
        assert compositions(0, 0) == ((),)
        assert compositions(1, 0) == ()


def _tes_dict(alpha):
    """tes by the first-row recursion on dicts of terms: the grouped sum of
    sub-values, one product per group weight, no packing."""
    return LaurentPolyQT._raw(_tes_dict_terms(tuple(alpha)))


@lru_cache(maxsize=None)
def _tes_dict_terms(alpha):
    if not alpha or alpha[0] == 0:
        return {}
    if len(alpha) == 1:
        return qt_int(alpha[0]).terms
    acc = Counter()
    for weight, tails in _first_rows(alpha[0], len(alpha)):
        group = Counter()
        for tail in tails:
            group.update(_tes_dict_terms(tuple(a + r for a, r in zip(alpha[1:], tail))))
        acc.update((weight * LaurentPolyQT(group)).terms)
    return {mono: c for mono, c in acc.items() if c}


def _decode(code):
    """The hook vector of a state code: base-2^16 digits, each offset by 2^15."""
    out = []
    while code:
        out.append((code & 0xFFFF) - (1 << 15))
        code >>= 16
    return tuple(out)


def _mass(alpha):
    """P: the larger of the sums of the positive and of the negative |entries|."""
    return max(sum(x for x in alpha if x > 0), -sum(x for x in alpha if x < 0))


def _tes_unguarded(alpha):
    """tes without its mass check, on whatever digits the module has."""
    code = _encode(alpha)
    l1, lo, hi, _, _ = _bound(code)
    if not l1:
        return ZERO
    k, w = _slot_sizes(l1, lo, hi)
    return _from_e(_unpack(*_tes_cached(code, k, w), k, w, lo))


def _clear_state_caches():
    # every cache whose values hold state codes, so depend on _DIGIT
    for fn in (_bound, _tes_cached, _row_groups):
        fn.cache_clear()


def _seeded_vectors(seed, count, length):
    """count seeded vectors of length 1..length with entries in [-3, 3]."""
    rng = random.Random(seed)
    return [tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, length)))
            for _ in range(count)]


class TestStateCodes:
    def test_every_state_stays_within_the_mass(self):
        # every state the recursion reaches has its entries in [-P, P], and
        # the code of each child is the code of the rows below plus the tail's
        for alpha in _seeded_vectors(61, 200, 6):
            mass = _mass(alpha)
            seen, stack = set(), [alpha]
            while stack:
                state = stack.pop()
                if state in seen:
                    continue
                seen.add(state)
                assert all(-mass <= x <= mass for x in state)
                if len(state) < 2 or not state[0]:
                    continue
                below = _encode(state[1:])
                rows = zip(_first_rows(state[0], len(state)), _row_groups(state[0], len(state)))
                for (_, tails), (_, _, codes) in rows:
                    for tail, tail_code in zip(tails, codes):
                        kid = tuple(x + t for x, t in zip(state[1:], tail))
                        assert below + tail_code == _encode(kid)
                        stack.append(kid)

    def test_four_bit_digits_without_the_guard_go_wrong(self, monkeypatch):
        # the mass bound is what keeps the digits apart: with 4-bit digits a
        # vector of mass P < 8 still agrees with the dict recursion, and some
        # vector of larger mass does not
        vectors = _seeded_vectors(71, 40, 5)
        expected = [_tes_dict(alpha) for alpha in vectors]
        _clear_state_caches()
        try:
            monkeypatch.setattr(tesler, "_DIGIT", 4)
            monkeypatch.setattr(tesler, "_HALF", 8)
            monkeypatch.setattr(tesler, "_MASK", 15)
            got = [_tes_unguarded(alpha) for alpha in vectors]
        finally:
            monkeypatch.undo()
            _clear_state_caches()
        assert all(g == e for alpha, g, e in zip(vectors, got, expected) if _mass(alpha) < 8)
        assert any(g != e for g, e in zip(got, expected))

    def test_mass_over_the_digit_range_is_refused(self):
        # the extreme entries still fit a digit; one more in either sum is refused
        top = (1 << 15) - 1
        assert _decode(_encode((top, -top, 0, 1 - top))) == (top, -top, 0, 1 - top)
        for alpha in [(20000, 20000), (-20000, -20000), (1 << 15,), (3, top - 2)]:
            with pytest.raises(ValueError, match="sum below 32768"):
                tes(alpha)


class TestPackedBudget:
    def test_tes_is_symmetric_in_q_and_t(self):
        # the premise of the packing: a value symmetric in q and t lies in
        # Z[e1, e2, 1/e2], so it packs in e1 and e2
        for alpha in _seeded_vectors(83, 200, 5):
            value = tes(alpha)
            assert value == value.swap_qt(), alpha

    def test_over_the_budget_is_refused_at_once(self):
        # a single hook over its budget, and a packed length over
        # PACKED_BITS_BUDGET, known after the bound pass
        for alpha, budget in [((30000,), "512"), ((-30000,), "512"), ((513,), "512"),
                              ((190, 1), "4,194,304")]:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"over the budget of {budget}"):
                tes(alpha)
            assert time.perf_counter() - start < 1

    def test_wide_two_entry_rows_cross_the_budget(self):
        # a known loss of the e-basis packing: the coefficients of [a] grow
        # like the Fibonacci numbers, so K grows with a wide first row, and
        # (112,1) is the widest (a,1) inside the budget
        l1, lo, hi, top, _ = _bound(_encode((112, 1)))
        k, w = _slot_sizes(l1, lo, hi)
        assert (k, w, top) == (160, 112, 223)
        assert k * w * (top + 1) <= tesler.PACKED_BITS_BUDGET
        for alpha in [(113, 1), (-100, 1)]:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=r"K\*W\*\(I\+1\)"):
                tes(alpha)
            assert time.perf_counter() - start < 1

    def test_budget_is_inclusive(self, monkeypatch):
        # K * W * (I + 1) of (1,1,1) exactly at the budget passes, one bit less refuses
        l1, lo, hi, top, _ = _bound(_encode((1, 1, 1)))
        k, w = _slot_sizes(l1, lo, hi)
        monkeypatch.setattr(tesler, "PACKED_BITS_BUDGET", k * w * (top + 1))
        assert tes((1, 1, 1)) == tes_via_theorem((1, 1, 1))
        monkeypatch.setattr(tesler, "PACKED_BITS_BUDGET", k * w * (top + 1) - 1)
        with pytest.raises(ValueError, match=r"K\*W\*\(I\+1\)"):
            tes((1, 1, 1))

    def test_budget_sits_far_above_the_tested_inputs(self):
        # (1^10) is the largest input the tests and the benchmark reach for
        l1, lo, hi, top, _ = _bound(_encode((1,) * 10))
        k, w = _slot_sizes(l1, lo, hi)
        assert 16 * k * w * (top + 1) < tesler.PACKED_BITS_BUDGET

    def test_bound_gives_the_packed_length(self):
        # the packed value has at most (I + 1) * W slots of K bits, the
        # length the budget is checked on before any packing
        for alpha in _seeded_vectors(97, 40, 6) + [(1,) * 8, (2,) * 5, (12, 1, 1), (-9, 2)]:
            code = _encode(alpha)
            l1, lo, hi, top, _ = _bound(code)
            if l1:
                k, w = _slot_sizes(l1, lo, hi)
                packed, low = _tes_cached(code, k, w)
                assert low >= lo and abs(packed).bit_length() <= k * (top * w + hi + 1 - low)
                assert top * w + hi + 1 - lo <= w * (top + 1)

    def test_single_hook_is_its_qt_int(self):
        for a in (512, -512):
            start = time.perf_counter()
            value = tes((a,))
            assert time.perf_counter() - start < 0.1
            assert value == qt_int(a)

    def test_single_hook_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(tesler, "SINGLE_HOOK_BUDGET", 7)
        assert tes((7,)) == qt_int(7) and tes((-7,)) == qt_int(-7)
        for a in (8, -8):
            with pytest.raises(ValueError, match="over the budget of 7"):
                tes((a,))


# every K the slot sizes make, up to 10-byte digits
K_SIZES = range(8, 81, 8)


class TestPackedKernel:
    @given(st.sampled_from(K_SIZES), st.integers(1, 12), st.integers(-30, 30), st.data())
    @settings(max_examples=100, deadline=None)
    def test_pack_unpack_round_trip(self, k, w, lo, data):
        top = (1 << (k - 1)) - 1
        coeff = st.one_of(st.sampled_from([top, -top, 1, -1]), st.integers(-top, top))
        terms = data.draw(st.dictionaries(
            st.tuples(st.integers(-20, 20), st.integers(lo, lo + w - 1)),
            coeff.filter(bool), max_size=40))
        poly = LaurentPolyQT._raw(terms)
        assert _unpack(*_pack(poly, k, w), k, w, lo) == terms

    @pytest.mark.parametrize("l1", [1, 2**7 - 1, 2**7, 2**14, 2**15 - 1, 2**15, 2**23 - 1,
                                    2**23, 2**31 - 1, 2**31, 2**47 - 1, 2**63 - 1, 2**63,
                                    2**79 - 1])
    @pytest.mark.parametrize("span", [0, 3, 4, 6, 7, 8, 15, 16])
    def test_slot_sizes_decode_extreme_values(self, l1, span):
        # coefficients of +-l1 at both ends of the e2-window, next to each other
        k, w = _slot_sizes(l1, -3, span - 3)
        terms = {}
        for a in range(-2, 3):
            terms[(a, -3)] = l1 if a % 2 else -l1
            terms[(a, span - 3)] = -l1 if a % 2 else l1
        poly = LaurentPolyQT._raw(terms)
        assert _unpack(*_pack(poly, k, w), k, w, -3) == terms

    def test_bound_dominates_value(self):
        # against the e-basis value found without the packing
        rng = random.Random(47)
        for _ in range(60):
            alpha = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 6)))
            terms = _e_of(_tes_dict(alpha))
            l1, lo, hi, top, _ = _bound(_encode(alpha))
            assert sum(map(abs, terms.values())) <= l1
            if terms:
                assert lo <= min(j for _, j in terms) and max(j for _, j in terms) <= hi
                assert max(i for i, _ in terms) <= top
                k, w = _slot_sizes(l1, lo, hi)
                assert _unpack(*_tes_cached(_encode(alpha), k, w), k, w, lo) == terms

    def test_bound_groups_hold_the_nonzero_children(self):
        # each recorded group lists, in tail order, exactly the children of
        # its first rows whose tes is nonzero; every other group is left out
        rng = random.Random(59)
        for _ in range(60):
            alpha = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 6)))
            groups = tuple((index, tuple(map(_decode, kids)))
                           for index, kids in _bound(_encode(alpha))[4])
            if len(alpha) == 1 or not alpha[0]:
                assert groups == ()
                continue
            expected = []
            for index, (_, tails) in enumerate(_first_rows(alpha[0], len(alpha))):
                kids = tuple(kid for kid in (tuple(a + r for a, r in zip(alpha[1:], tail))
                                             for tail in tails)
                             if _tes_dict(kid))
                if kids:
                    expected.append((index, kids))
            assert groups == tuple(expected)

    @pytest.mark.parametrize("offset", [-50, 0, 50])
    def test_group_sum_is_exact_with_a_zero_child(self, monkeypatch, offset):
        # a child whose packed value is 0, at any offset, in any place of its
        # group, leaves exactly the other children's sum
        alpha = (3, 1, 1)
        code = _encode(alpha)
        l1, lo, hi, _, groups = _bound(code)
        k, w = _slot_sizes(l1, lo, hi)
        index, kids = next(g for g in groups if len(g[1]) > 2)
        weight = _first_rows(alpha[0], len(alpha))[index][0]
        tes(alpha)  # every state below is cached, so the fake below reaches no miss
        real = tesler._tes_cached
        for zero_kid in kids:
            monkeypatch.setattr(tesler, "_tes_cached", lambda c, k, w, zero=zero_kid: (
                (0, offset) if c == zero else real(c, k, w)))
            value = _from_e(_unpack(*real.__wrapped__(code, k, w), k, w, lo))
            assert value == _tes_dict(alpha) - weight * _tes_dict(_decode(zero_kid))

    @pytest.mark.parametrize("alpha", [(1,) * 9, (-1,) * 9, (2,) * 6, (-2,) * 6])
    def test_matches_dict_recursion(self, alpha):
        assert tes(alpha) == _tes_dict(alpha)

    def test_matches_dict_recursion_seeded(self):
        rng = random.Random(53)
        for _ in range(20):
            alpha = tuple(rng.randint(-2, 2) for _ in range(7))
            assert tes(alpha) == _tes_dict(alpha)


def _unpack_slot_by_slot(packed, low, k, w, lo):
    """The slow definition of _unpack: convert every K-bit digit of the
    binary text of the value plus 2^(K-1) in every slot, and keep the
    nonzero ones."""
    if not packed:
        return {}
    count = abs(packed).bit_length() // k + 2
    half = 1 << (k - 1)
    digits = format(packed + int(("1" + "0" * (k - 1)) * count, 2), "b").zfill(count * k)
    terms = {}
    end = len(digits)
    for slot in range(low, low + count):
        c = int(digits[end - k:end], 2) - half
        end -= k
        if c:
            i, r = divmod(slot - lo, w)
            terms[(i, r + lo)] = c
    return terms


class TestDecode:
    """_unpack reads the digits K/8 bytes at a time; it must equal the slow
    definition term for term, in the same order, and _from_e must map its
    e-basis terms to the (q,t) polynomial they stand for."""

    @staticmethod
    def _check(poly, k, w, lo):
        packed, low = _pack(poly, k, w)
        fast, slow = _unpack(packed, low, k, w, lo), _unpack_slot_by_slot(packed, low, k, w, lo)
        assert list(fast.items()) == list(slow.items())
        assert fast == poly.terms

    def test_matches_the_slot_by_slot_decode_seeded(self):
        rng = random.Random(61)
        for _ in range(200):
            k, w, lo = rng.choice(K_SIZES), rng.randint(1, 12), rng.randint(-30, 30)
            top = (1 << (k - 1)) - 1
            terms = {}
            # sparse or dense, so that runs of empty slots are long or short
            for _ in range(rng.choice((1, 3, 10, 40))):
                c = rng.choice((top, -top, 1, -1, rng.randint(-top, top)))
                if c:
                    terms[(rng.randint(-20, 20), rng.randint(lo, lo + w - 1))] = c
            self._check(LaurentPolyQT._raw(terms), k, w, lo)

    # need is the bit length of the balanced digits, and K the multiple of 8
    # that _slot_sizes makes for them: need = K puts +-(2^(K-1) - 1) in a slot
    @pytest.mark.parametrize("need", [2, 3, *K_SIZES, 17])
    @pytest.mark.parametrize("w", [1, 4, 7])
    def test_wide_empty_gaps(self, need, w):
        top = (1 << (need - 1)) - 1
        lo = -2
        k, _ = _slot_sizes(top, lo, lo)
        corners = {(-25, lo): top, (25, lo + w - 1): -top}
        self._check(LaurentPolyQT._raw(corners), k, w, lo)
        # one term alone, in the top slot of the window
        self._check(LaurentPolyQT._raw({(9, lo + w - 1): -1}), k, w, lo)
        self._check(LaurentPolyQT._raw({(9, lo + w - 1): top}), k, w, lo)
        # +-top with an empty slot on either side
        spaced = {(a, lo): top if a % 4 else -top for a in range(-12, 13, 2)}
        if w > 2:
            spaced.update({(a, lo + w - 1): -top for a in range(-11, 13, 4)})
        self._check(LaurentPolyQT._raw(spaced), k, w, lo)

    @pytest.mark.parametrize("k", K_SIZES[1:])
    def test_k_one_byte_short_goes_wrong(self, k):
        # a value whose digits need all of K bits does not survive K - 8
        top = (1 << (k - 1)) - 1
        poly = LaurentPolyQT._raw({(0, 0): top, (1, 0): -top, (2, 1): 1})
        assert _unpack(*_pack(poly, k, 4), k, 4, 0) == poly.terms
        assert _unpack(*_pack(poly, k - 8, 4), k - 8, 4, 0) != poly.terms

    def test_convert_round_trips_random_symmetric_polynomials(self):
        # a random e-basis value is a random symmetric (q,t) polynomial:
        # packed, decoded and converted it gives that polynomial back
        rng = random.Random(67)
        for _ in range(60):
            k, w, lo = rng.choice(K_SIZES), rng.randint(1, 9), rng.randint(-6, 3)
            top = (1 << (k - 1)) - 1
            terms = {(rng.randint(0, 14), rng.randint(lo, lo + w - 1)):
                     rng.choice((top, -top, 1, -1, rng.randint(-top, top)))
                     for _ in range(rng.choice((1, 4, 15, 40)))}
            terms = {m: c for m, c in terms.items() if c}
            poly = _qt_of(terms)
            assert poly == poly.swap_qt() and _e_of(poly) == terms
            assert _from_e(_unpack(*_pack(LaurentPolyQT._raw(terms), k, w), k, w, lo)) == poly
