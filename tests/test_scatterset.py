import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from modscatter import arith, scatterset
from modscatter.arith import MemoryBudgetExceeded
from modscatter.scatterset import (
    INFINITY,
    ScatterSet,
    UnimodularMatrix,
    canonical_fraction,
    equivalence_witness,
    fraction_record,
    iter_fractions,
    pairing_census,
    partner,
    scatter_set,
    sojourn_time,
)


def phi(q):
    out = q
    for p, _ in arith.factorize(q).factors:
        out -= out // p
    return out


def scan_pairing(q):
    """Independent oracle: (self_paired, pairs, member numerators) of q >= 2
    by an ascending scan of [1, q) with Python's modular inverse."""
    selfp, pairs = [], []
    seen = bytearray(q)
    for p in range(1, q):
        if seen[p] or math.gcd(p, q) != 1:
            continue
        y = (-pow(p, -1, q)) % q
        if y == p:
            selfp.append(p)
        else:
            # ascending scan: the partner of a fresh unit is always above it
            pairs.append((p, y))
            seen[y] = 1
    return tuple(selfp), tuple(pairs), sorted(selfp + [a for a, _ in pairs])


class TestUnimodularMatrix:
    def test_rejects_bad_determinant(self):
        with pytest.raises(ValueError):
            UnimodularMatrix(1, 0, 0, 2)
        with pytest.raises(ValueError):
            UnimodularMatrix(0, 1, 1, 0)  # det -1

    def test_sign_normalization(self):
        assert UnimodularMatrix(-1, 0, 0, -1) == UnimodularMatrix.identity()
        m = UnimodularMatrix(-2, -1, -5, -3)
        assert m.c > 0
        assert m == UnimodularMatrix(2, 1, 5, 3)

    def test_group_operations(self):
        rng = random.Random(5)
        t = UnimodularMatrix(1, 1, 0, 1)
        s = UnimodularMatrix(0, -1, 1, 0)
        for _ in range(50):
            m = UnimodularMatrix.identity()
            for _ in range(rng.randrange(1, 10)):
                m = m * rng.choice([t, s, t.inverse()])
            assert m * m.inverse() == UnimodularMatrix.identity()
            assert m.a * m.d - m.b * m.c == 1

    def test_fraction_action(self):
        m = UnimodularMatrix(4, -1, 5, -1)
        assert m.apply_to(INFINITY) == Fraction(4, 5)
        assert m.apply_to(Fraction(1, 5)) == INFINITY
        t = UnimodularMatrix(1, 3, 0, 1)
        assert t.apply_to(INFINITY) == INFINITY
        assert t.apply_to(Fraction(1, 2)) == Fraction(7, 2)


def test_partner_golden():
    assert partner(1, 5) == 4
    assert partner(2, 5) == 2
    assert partner(3, 7) == 2


def test_partner_involutive_and_valid():
    for q in range(2, 200):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            y = partner(p, q)
            assert 1 <= y < q
            assert (p * y + 1) % q == 0
            assert partner(y, q) == p


def test_partner_rejects(monkeypatch):
    with pytest.raises(ValueError):
        partner(2, 4)
    with pytest.raises(ValueError):
        partner(0, 5)
    with pytest.raises(ValueError):
        partner(5, 5)
    with pytest.raises(ValueError):
        partner(1, 1)
    # q*q leaves int64 just past isqrt(2**63 - 1): the pairing kernel refuses
    # such q before numpy or the factorization is touched
    bound = arith._INT64_ROOT
    assert bound * bound < 2**63 <= (bound + 1) ** 2
    monkeypatch.setattr(scatterset, "np", None)
    monkeypatch.setattr(scatterset, "arith", None)
    for build in (scatter_set, pairing_census):
        with pytest.raises(ValueError, match="int64"):
            build(bound + 1)


def test_scatter_set_golden():
    g5 = scatter_set(5)
    assert g5.self_paired == (2, 3)
    assert g5.pairs == ((1, 4),)
    assert g5.members == (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5))

    g2 = scatter_set(2)
    assert g2.self_paired == (1,)
    assert g2.pairs == ()
    assert g2.members == (Fraction(1, 2),)

    g7 = scatter_set(7)
    assert g7.self_paired == ()
    assert g7.pairs == ((1, 6), (2, 3), (4, 5))
    assert g7.members == (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))

    assert scatter_set(1) == ScatterSet(1, (), (), (Fraction(0),))
    # the pairing construction applies verbatim at q = 4
    assert scatter_set(4).members == (Fraction(1, 4),)


def test_partition_and_cardinality():
    for q in range(2, 2000):
        g = scatter_set(q)
        units = sorted(g.self_paired + tuple(p for pr in g.pairs for p in pr))
        assert units == [p for p in range(1, q) if math.gcd(p, q) == 1]
        s = arith.count_sqrt_minus_one(q)
        assert len(g.self_paired) == s
        assert 2 * len(g.members) == phi(q) + s
        for p1, p2 in g.pairs:
            assert p1 < p2
            assert (p1 * p2 + 1) % q == 0


def test_census_matches_construction():
    for q in range(2, 2001):
        selfp, pairs, nums = scan_pairing(q)
        g = scatter_set(q)
        assert g.self_paired == selfp, q
        assert g.pairs == pairs, q
        assert g.members == tuple(Fraction(p, q) for p in nums), q
        assert all(type(p) is int for pr in (g.self_paired, *g.pairs) for p in pr), q
        assert pairing_census(q) == (phi(q), len(selfp), len(nums)), q


def test_iteration_golden():
    assert list(iter_fractions(1)) == [Fraction(0)]
    assert list(iter_fractions(3)) == [Fraction(0), Fraction(1, 2), Fraction(1, 3)]
    assert list(iter_fractions(7)) == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 4),
        Fraction(1, 5),
        Fraction(2, 5),
        Fraction(3, 5),
    ]


def test_iteration_order_and_uniqueness():
    seen = set()
    prev_key = None
    for w in iter_fractions(100_000):
        key = (w.denominator, w)
        assert key not in seen
        seen.add(key)
        if prev_key is not None:
            assert key > prev_key
        prev_key = key


def test_family_blocks_match_scan():
    blocks = itertools.islice(scatterset.family_blocks(), 600)
    for q, (bq, p, self_paired) in enumerate(blocks, start=1):
        assert bq == q and type(bq) is int
        if q == 1:
            selfp, nums = (0,), [0]
        else:
            selfp, _, nums = scan_pairing(q)
        assert p.tolist() == nums, q
        assert self_paired.tolist() == [n in selfp for n in nums], q
        start_q, start_p, start_self = next(scatterset.family_blocks(start=q))
        assert start_q == q and start_p.tolist() == nums
        assert start_self.tolist() == self_paired.tolist()


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 7, 50, 1000, 5003])
def test_family_blocks_cut_at_limit(limit):
    blocks = list(scatterset.family_blocks(limit))
    whole = [w for q in range(1, blocks[-1][0] + 1) for w in scatter_set(q).members]
    got = [Fraction(int(n), q) for q, p, _ in blocks for n in p]
    assert got == whole[:limit]
    assert all(p.size for _, p, _ in blocks)
    with pytest.raises(ValueError):
        next(scatterset.family_blocks(0))
    with pytest.raises(ValueError):
        next(scatterset.family_blocks(start=0))


def test_runs_match_scan():
    # every q <= 3000 through the runs the family walk makes: the kernel's
    # lower half of the units and their partners, and the members and
    # self-paired flags read off them
    runs = []
    for qa, ends, p, self_paired in scatterset._member_runs(start=2):
        if qa > 3000:
            break
        qb = qa + ends.size
        runs.append((qa, qb))
        counts, half, y = scatterset._pairing_run(qa, qb)
        lo = member_lo = 0
        for q, count, member_hi in zip(range(qa, qb), counts.tolist(), ends.tolist()):
            hi = lo + count
            selfp, pairs, nums = scan_pairing(q)
            mate = {s: s for s in selfp} | dict(pairs) | {b: a for a, b in pairs}
            units = sorted(mate)
            assert half[lo:hi].tolist() == [u for u in units if 2 * u <= q], q
            assert y[lo:hi].tolist() == [mate[u] for u in units if 2 * u <= q], q
            assert p[member_lo:member_hi].tolist() == nums, q
            assert self_paired[member_lo:member_hi].tolist() == [n in selfp for n in nums], q
            lo, member_lo = hi, member_hi
        assert lo == half.size and member_lo == p.size
    # runs start at one q and grow to many
    assert runs[0] == (2, 3) and max(b - a for a, b in runs) > 50
    for qa, _ in runs[1:]:
        for q in (qa - 1, qa):
            _, _, nums = scan_pairing(q)
            start_q, start_p, _ = next(scatterset.family_blocks(start=q))
            assert start_q == q and start_p.tolist() == nums, q
            first = next(scatterset._member_runs(start=q))
            assert first[0] == q and first[1].size == 1


@pytest.mark.parametrize("qa,qb", [(1009, 1010), (1000, 1100), (2, 3)])
@pytest.mark.parametrize("at", [0, -1])
@pytest.mark.parametrize("shift", ["one", "modulus"])
def test_corrupt_inverse_is_caught(monkeypatch, qa, qb, at, shift):
    # a wrong inverse fails p*inv == 1; one off by its modulus passes that
    # but puts the partner q - inv outside [1, q)
    mod_pow = scatterset._mod_pow

    def corrupt(base, exps, counts, mod):
        out = mod_pow(base, exps, counts, mod)
        out[at] += 1 if shift == "one" else mod[at]
        return out

    monkeypatch.setattr(scatterset, "_mod_pow", corrupt)
    with pytest.raises(ArithmeticError):
        scatterset._pairing_run(qa, qb)
    if qb - qa == 1:
        with pytest.raises(ArithmeticError):
            pairing_census(qa)


@pytest.mark.parametrize("q", [2**16, 5**8, 30030 * 33, 999_983])
def test_pairing_working_set_within_model(q):
    # the census of q, and the walk's first block from q, as gq reads it
    for work in (lambda: pairing_census(q), lambda: next(scatterset.family_blocks(start=q))):
        tracemalloc.start()
        try:
            work()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= q + scatterset._PAIRING_BYTES_PER_UNIT * phi(q), work


def test_pairing_refuses_over_budget(monkeypatch):
    # refused from the factorization alone: numpy is patched away
    monkeypatch.setattr(scatterset, "np", None)
    for q in (100_000_007, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23):
        assert q + scatterset._PAIRING_BYTES_PER_UNIT * phi(q) > arith._BYTE_BUDGET
        with pytest.raises(MemoryBudgetExceeded, match="budget"):
            pairing_census(q)
        with pytest.raises(MemoryBudgetExceeded):
            next(scatterset.family_blocks(start=q))
    # a prime q is budgeted q + 42*(q - 1) bytes, past 850,000,000 from
    # q = 19,767,443 on: the first prime there is refused, the prime below
    # gets past the guard
    assert arith.is_prime(19_767_439) and arith.is_prime(19_767_457)
    assert not any(arith.is_prime(q) for q in range(19_767_440, 19_767_457))
    with pytest.raises(MemoryBudgetExceeded, match="budget"):
        pairing_census(19_767_457)
    with pytest.raises(AttributeError):  # reached numpy
        pairing_census(19_767_439)


@pytest.mark.parametrize("q", [99991, 3**9, 2 * 3 * 5 * 7 * 11 * 13])
def test_scatter_set_within_model(q):
    tracemalloc.start()
    try:
        scatter_set(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= scatterset._SCATTER_SET_BYTES_PER_UNIT * phi(q)


def test_scatter_set_refuses_over_budget(monkeypatch):
    # a prime q is budgeted 150*(q - 1) bytes, past 850,000,000 from
    # q = 5,666,668 on: the first prime there is refused before the kernel
    # runs, the prime below reaches it
    def kernel(qa, qb):
        raise AssertionError("reached the kernel")

    monkeypatch.setattr(scatterset, "_pairing_run", kernel)
    assert arith.is_prime(5_666_641) and arith.is_prime(5_666_677)
    assert not any(arith.is_prime(q) for q in range(5_666_642, 5_666_677))
    assert scatterset._SCATTER_SET_BYTES_PER_UNIT * 5_666_676 > arith._BYTE_BUDGET
    with pytest.raises(MemoryBudgetExceeded, match="budget"):
        scatter_set(5_666_677)
    with pytest.raises(AssertionError, match="reached the kernel"):
        scatter_set(5_666_641)


def test_equivalence_golden():
    assert equivalence_witness(Fraction(1, 5), Fraction(4, 5)) == UnimodularMatrix(4, -1, 5, -1)
    assert equivalence_witness(Fraction(1, 3), Fraction(1, 3)) == UnimodularMatrix.identity()
    assert equivalence_witness(Fraction(1, 5), Fraction(2, 5)) is None
    assert equivalence_witness(Fraction(1, 3), Fraction(1, 2)) is None


def test_equivalence_rejects_out_of_range():
    with pytest.raises(ValueError):
        equivalence_witness(Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        equivalence_witness(Fraction(1, 2), Fraction(3, 2))


def test_witness_action_exact():
    for q in range(2, 120):
        for p1 in range(1, q):
            if math.gcd(p1, q) != 1:
                continue
            p2 = partner(p1, q)
            if p2 == p1:
                continue
            w1, w2 = Fraction(p1, q), Fraction(p2, q)
            m = equivalence_witness(w1, w2)
            assert m is not None
            assert m.a * m.d - m.b * m.c == 1
            assert m.apply_to(INFINITY) == w2
            assert m.apply_to(w1) == INFINITY
            # and symmetrically
            back = equivalence_witness(w2, w1)
            assert back is not None
            assert back.apply_to(INFINITY) == w1


def test_equivalence_classes_have_size_one_or_two():
    for q in range(2, 60):
        units = [p for p in range(1, q) if math.gcd(p, q) == 1]
        for p1 in units:
            mates = [
                p2
                for p2 in units
                if p2 != p1
                and equivalence_witness(Fraction(p1, q), Fraction(p2, q)) is not None
            ]
            assert len(mates) <= 1
            if mates:
                assert partner(p1, q) == mates[0]


def test_canonical_golden():
    assert canonical_fraction(Fraction(4, 5)) == Fraction(1, 5)
    assert canonical_fraction(Fraction(2, 5)) == Fraction(2, 5)
    assert canonical_fraction(Fraction(0)) == Fraction(0)


def test_canonical_idempotent_and_consistent():
    for q in range(2, 100):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            w = Fraction(p, q)
            c = canonical_fraction(w)
            assert canonical_fraction(c) == c
            assert c in scatter_set(q).members
            # same canonical image exactly when a witness exists
            same = equivalence_witness(w, c) is not None if w != c else True
            assert same


def test_canonical_separates_inequivalent():
    for q in (5, 7, 10, 13):
        units = [p for p in range(1, q) if math.gcd(p, q) == 1]
        for p1 in units:
            for p2 in units:
                w1, w2 = Fraction(p1, q), Fraction(p2, q)
                has_witness = equivalence_witness(w1, w2) is not None
                assert has_witness == (canonical_fraction(w1) == canonical_fraction(w2))


def test_sojourn_time():
    assert sojourn_time(Fraction(0), 2.0) == pytest.approx(2 * math.log(2), abs=1e-12)
    assert sojourn_time(Fraction(1, 2), 2.0) == pytest.approx(2 * math.log(4), abs=1e-12)
    for t0 in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            sojourn_time(Fraction(2, 5), t0)


def test_fraction_record():
    rec = fraction_record(Fraction(2, 5), 2.0)
    assert rec == {
        "q": 5,
        "p": 2,
        "class": "self_paired",
        "sojourn": pytest.approx(2 * math.log(10)),
    }
    assert fraction_record(Fraction(1, 5), 2.0)["class"] == "pair_min"
    assert fraction_record(Fraction(0), 2.0)["class"] == "self_paired"
    # every coprime p/q with q < 200, pair maxima included
    for q in range(2, 200):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                kind = fraction_record(Fraction(p, q), 2.0)["class"]
                assert (kind == "self_paired") == (partner(p, q) == p), (p, q)
