import pytest
from hypothesis import given, strategies as st

from framedbraids.words import (
    BraidWord,
    Letter,
    Permutation,
    concat,
    exponent_sum,
    invert,
    permutation_of,
    sigma,
    tau,
)


def letters_strategy(n: int, max_len: int = 8):
    sigma_letters = st.builds(
        sigma,
        st.integers(1, max(n - 1, 1)),
        st.integers(-3, 3).filter(lambda e: e != 0),
    ) if n >= 2 else st.nothing()
    tau_letters = st.builds(
        tau, st.integers(1, n), st.integers(-3, 3).filter(lambda e: e != 0)
    )
    pool = st.one_of(sigma_letters, tau_letters) if n >= 2 else tau_letters
    return st.lists(pool, max_size=max_len).map(lambda ls: BraidWord(n, tuple(ls)))


words3 = letters_strategy(3)


def test_letter_validation():
    with pytest.raises(ValueError):
        Letter("sigma", 1, 0)
    with pytest.raises(ValueError):
        Letter("sigma", 0, 1)
    with pytest.raises(ValueError):
        Letter("rho", 1, 1)


def test_interned_letters_validate_and_keep_their_exponent_type():
    for _ in range(2):
        with pytest.raises(ValueError):
            sigma(0)
        with pytest.raises(ValueError):
            tau(1, 0)
        # the memo keeps 1.0 and True apart from the cached int letter, so
        # both reach Letter's exact-int check, every time
        assert sigma(1).exponent.__class__ is int
        with pytest.raises(ValueError, match="letter exponent must be an int, got 1.0"):
            sigma(1, 1.0)
        with pytest.raises(ValueError, match="letter exponent must be an int, got True"):
            sigma(1, True)
    assert sigma(1, 2) == Letter("sigma", 1, 2)


def test_index_bounds_against_n():
    with pytest.raises(ValueError):
        BraidWord(3, (sigma(3),))
    with pytest.raises(ValueError):
        BraidWord(3, (tau(4),))
    BraidWord(3, (sigma(2), tau(3)))


def test_bounds_are_checked_on_every_letter():
    # the first letter out of range is refused, even one that would cancel
    assert BraidWord(3, (sigma(2), tau(3))).letters == (sigma(2), tau(3))
    for letters, message in (((sigma(5), sigma(5, -1)), "sigma index 5 out of range for n=3"),
                             ((sigma(5), sigma(2), tau(3), tau(3, -1), sigma(2, -1),
                               sigma(5, -1)), "sigma index 5 out of range for n=3"),
                             ((sigma(3),), "sigma index 3 out of range for n=3"),
                             ((tau(4),), "tau index 4 out of range for n=3"),
                             ((sigma(5), sigma(5)), "sigma index 5 out of range for n=3"),
                             ((tau(4), tau(4, -1), sigma(3)), "tau index 4 out of range for n=3"),
                             ((sigma(1), tau(4), sigma(3)), "tau index 4 out of range for n=3")):
        with pytest.raises(ValueError) as err:
            BraidWord(3, letters)
        assert str(err.value) == message


def test_free_reduction_on_construction():
    w = BraidWord(2, (sigma(1), sigma(1, -1)))
    assert w.letters == ()
    w = BraidWord(3, (sigma(1), sigma(2), sigma(2)))
    assert w.letters == (sigma(1), sigma(2, 2))
    w = BraidWord(2, (tau(1), tau(1, 2)))
    assert w.letters == (tau(1, 3),)


def test_cascading_reduction():
    w = BraidWord(3, (sigma(1), sigma(2), sigma(2, -1), sigma(1, -1)))
    assert not w.letters


def test_concat_examples():
    assert not concat(BraidWord(2, (sigma(1),)), BraidWord(2, (sigma(1, -1),))).letters
    assert concat(
        BraidWord(3, (sigma(1), sigma(2))), BraidWord(3, (sigma(2),))
    ).letters == (sigma(1), sigma(2, 2))
    assert concat(BraidWord(2, (tau(1),)), BraidWord(2, (tau(1, 2),))).letters == (
        tau(1, 3),
    )


def test_concat_strand_mismatch():
    with pytest.raises(ValueError):
        concat(BraidWord(2), BraidWord(3))


def test_invert_examples():
    w = BraidWord(3, (sigma(1), sigma(2)))
    assert invert(w).letters == (sigma(2, -1), sigma(1, -1))
    assert not invert(BraidWord(3)).letters
    w = BraidWord(2, (tau(1), sigma(1, 2)))
    assert invert(w).letters == (sigma(1, -2), tau(1, -1))


def test_permutation_examples():
    assert permutation_of(BraidWord(2, (sigma(1),))).images == (2, 1)
    # odd exponent behaves like a single crossing; cross-check by expansion
    run = BraidWord(2, (sigma(1, -3),))
    expanded = BraidWord(2, (sigma(1, -1), sigma(1, -1), sigma(1, -1)))
    assert permutation_of(run) == permutation_of(expanded) == Permutation((2, 1))
    assert permutation_of(BraidWord(3, (tau(1, 5),))) == Permutation((1, 2, 3))


def test_exponent_sum_examples():
    assert exponent_sum(BraidWord(2, (tau(1, -1), sigma(1, -3)))) == -4
    assert exponent_sum(BraidWord(1)) == 0
    assert exponent_sum(BraidWord(3, (sigma(1), sigma(2, -1), tau(2, 2)))) == 2


@given(words3, words3, words3)
def test_concat_associative(a, b, c):
    assert concat(concat(a, b), c) == concat(a, concat(b, c))


@given(words3)
def test_identity_and_inverse(a):
    e = BraidWord(3)
    assert concat(a, e) == a == concat(e, a)
    assert not concat(a, invert(a)).letters
    assert invert(invert(a)) == a


@given(words3, words3)
def test_permutation_homomorphism(a, b):
    # the product ab sends j to p_b(p_a(j))
    p_a, p_b = permutation_of(a), permutation_of(b)
    rhs = Permutation(tuple(p_b.apply(p_a.apply(j)) for j in range(1, 4)))
    assert permutation_of(concat(a, b)) == rhs


@given(words3, words3)
def test_exponent_sum_additive(a, b):
    assert exponent_sum(concat(a, b)) == exponent_sum(a) + exponent_sum(b)
    assert exponent_sum(invert(a)) == -exponent_sum(a)


def test_permutation_cycles():
    p = Permutation((2, 1, 3))
    assert p.cycles() == ((1, 2), (3,))
    q = Permutation((2, 3, 1))
    assert q.cycles() == ((1, 2, 3),)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
