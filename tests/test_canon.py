import random

import pytest

from framedbraids._canon import canonical_order

from oracles import brute_canonical_order

ALPHABETS = {
    "signed": (-2, -1, 0, 1, 2),
    "abs": (0, 1, 2),
    "zero_heavy": (0, 0, 0, 0, 1, -1),
}


def symmetric(k, entry):
    """The symmetric zero-diagonal k x k matrix with entry(i, j) above it."""
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            m[i][j] = m[j][i] = entry(i, j)
    return m


def chain(k):
    return symmetric(k, lambda i, j: int(j == i + 1))


def star(k):
    return symmetric(k, lambda i, j: int(i == 0))


def cycle(k):
    return symmetric(k, lambda i, j: int(j == i + 1 or (i == 0 and j == k - 1)))


def complete(k):
    return symmetric(k, lambda i, j: 1)


def two_chains(k):
    half = k // 2
    return symmetric(k, lambda i, j: int(j == i + 1 and j != half))


SHAPES = [chain, star, cycle, complete, two_chains]


def random_case(rng, k_max, alphabet):
    k = rng.randint(1, k_max)
    framings = [rng.choice((0, 0, 1, -1)) for _ in range(k)]
    return framings, symmetric(k, lambda i, j: rng.choice(alphabet))


@pytest.mark.parametrize("alphabet", sorted(ALPHABETS))
def test_matches_brute_force_on_random_matrices(alphabet):
    rng = random.Random(f"canon-{alphabet}")
    for _ in range(700):
        framings, matrix = random_case(rng, 7, ALPHABETS[alphabet])
        assert canonical_order(framings, matrix) == brute_canonical_order(framings, matrix)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.__name__)
def test_matches_brute_force_on_symmetric_shapes(shape):
    for k in range(1, 8):
        for framings in ([0] * k, [c % 2 for c in range(k)]):
            matrix = shape(k)
            assert canonical_order(framings, matrix) == brute_canonical_order(framings, matrix)


def twin_heavy_case(rng, k):
    """Components in a few classes whose rows agree outside the class, with
    one value inside each: fully symmetric cells, at times broken by one
    changed entry so that a cell is only partly symmetric."""
    label = [rng.randrange(rng.randint(1, 3)) for _ in range(k)]
    value = {}
    for a in range(3):
        for b in range(a, 3):
            value[a, b] = value[b, a] = rng.choice((0, 1, 1, -1, 2))
    matrix = symmetric(k, lambda i, j: value[label[i], label[j]])
    if k > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(k), 2)
        matrix[i][j] = matrix[j][i] = rng.choice((0, 1, 3))
    framings = [label[c] % 2 if rng.random() < 0.3 else 0 for c in range(k)]
    return framings, matrix


def test_matches_brute_force_on_twin_heavy_matrices():
    rng = random.Random("canon-twins")
    for _ in range(600):
        framings, matrix = twin_heavy_case(rng, rng.randint(1, 7))
        assert canonical_order(framings, matrix) == brute_canonical_order(framings, matrix)


def test_matches_brute_force_on_short_circuit_inputs():
    rng = random.Random("canon-short-circuits")
    cases = [([], [])] + [([f], [[0]]) for f in (-2, 0, 3)]
    for k in range(2, 8):
        # all untied: distinct framings over a random matrix
        cases.append((rng.sample(range(-9, 10), k), symmetric(k, lambda i, j: rng.randint(-2, 2))))
        # all zero: tied framings, nothing linked
        cases.append(([rng.choice((0, 1)) for _ in range(k)], symmetric(k, lambda i, j: 0)))
        # tied but zero rows: isolated components beside a linked pair
        cases.append(([0] * k, symmetric(k, lambda i, j: int((i, j) == (0, 1)))))
    for framings, matrix in cases:
        assert canonical_order(framings, matrix) == brute_canonical_order(framings, matrix)


def test_key_is_relabel_invariant_on_tie_heavy_inputs():
    rng = random.Random(12)
    cases = [([0] * k, shape(k)) for shape in SHAPES for k in range(2, 13)]
    cases += [random_case(rng, 12, (0, 1)) for _ in range(60)]
    for framings, matrix in cases:
        k = len(framings)
        order, key = canonical_order(framings, matrix)
        assert key[1] == tuple(tuple(matrix[a][b] for b in order) for a in order)
        for _ in range(3):
            perm = list(range(k))
            rng.shuffle(perm)
            moved_framings = [framings[perm[c]] for c in range(k)]
            moved = [[matrix[perm[a]][perm[b]] for b in range(k)] for a in range(k)]
            assert canonical_order(moved_framings, moved)[1] == key
