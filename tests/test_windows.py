import pytest

from cantelli.windows import (
    Orientation,
    Terminal,
    WindowPattern,
    all_complement,
    first_occurrence,
)


def test_marginal_constraints():
    w = first_occurrence(5, 0)
    assert w.constraints() == ((5, True),)
    assert w.first_index == 5
    assert w.last_index == 5


def test_prefix_occurrence_constraints():
    w = first_occurrence(3, 2)
    assert w.constraints() == ((3, False), (4, False), (5, True))
    assert w.last_index == 5


def test_suffix_occurrence_constraints():
    w = first_occurrence(3, 2, Orientation.SUFFIX_COMPLEMENT)
    assert w.constraints() == ((3, True), (4, False), (5, False))
    assert w.last_index == 5


def test_all_complement_constraints():
    w = all_complement(2, 3)
    assert w.constraints() == ((2, False), (3, False), (4, False))
    assert w.last_index == 4


def test_validation():
    with pytest.raises(ValueError):
        WindowPattern(0, 1)
    with pytest.raises(ValueError):
        WindowPattern(1, -1)
    with pytest.raises(ValueError):
        WindowPattern(1, 0, Terminal.ALL_COMPLEMENT)


def test_patterns_are_hashable_and_frozen():
    w = first_occurrence(1, 1)
    assert w == first_occurrence(1, 1)
    assert hash(w) == hash(first_occurrence(1, 1))
    with pytest.raises(AttributeError):
        w.start = 2
