import random

import pytest

from puncgon.linalg import FractionElim, IntElim, PivotError


def test_integer_rows_stay_reduced():
    elim = IntElim(3)
    assert elim.add([1, 1, 0]) and elim.add([0, -1, 1])
    assert elim.rows == {0: [1, 0, 1], 1: [0, 1, -1]}
    assert not elim.add([1, 2, -1])  # the sum of the two rows
    assert elim.add([0, 0, -1])
    assert elim.rows == {0: [1, 0, 0], 1: [0, 1, 0], 2: [0, 0, 1]} and elim.rank == 3
    with pytest.raises(PivotError) as info:
        IntElim(2).add([0, -2])
    assert info.value.pivot == -2


def test_integer_elimination_matches_the_rational_reference_until_a_bad_pivot():
    """Seeded vectors over -1, 0 and 1: the integer elimination keeps the
    rows of FractionElim, and refuses, naming the pivot and leaving its
    rows as they were, the first residual whose pivot is not -1 or 1."""
    refused = 0
    for seed in range(200):
        rng = random.Random(f"intelim:{seed}")
        width = rng.randrange(1, 8)
        ints, fracs = IntElim(width), FractionElim(width)
        for _ in range(2 * width):
            vec = [rng.choice((-1, 0, 0, 1)) for _ in range(width)]
            pivot = next((x for x in fracs.reduce(vec) if x), None)
            if pivot in (None, 1, -1):
                assert ints.add(vec) == fracs.add(vec), seed
                assert sorted(ints.rows.items()) == fracs.pivots, seed
                continue
            with pytest.raises(PivotError) as info:
                ints.add(vec)
            assert info.value.pivot == pivot
            assert sorted(ints.rows.items()) == fracs.pivots, seed
            refused += 1
            break
    assert refused > 0
