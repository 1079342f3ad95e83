import pytest

from cantelli.windows import WindowPattern, all_complement, first_occurrence

from conftest import constraints


def test_marginal_constraints():
    w = first_occurrence(5, 0)
    assert w == WindowPattern(5, 1, 0b1)
    assert constraints(w) == ((5, True),)
    assert w.start == 5
    assert w.start + w.width - 1 == 5


def test_prefix_occurrence_constraints():
    w = first_occurrence(3, 2)
    assert w == WindowPattern(3, 3, 0b100)
    assert constraints(w) == ((3, False), (4, False), (5, True))
    assert w.start + w.width - 1 == 5


def test_suffix_occurrence_constraints():
    # A_n, then m complements: the windows verify's suffix rows check
    w = WindowPattern(3, 3, 0b001)
    assert constraints(w) == ((3, True), (4, False), (5, False))
    assert w.start + w.width - 1 == 5


def test_all_complement_constraints():
    w = all_complement(2, 3)
    assert w == WindowPattern(2, 3, 0)
    assert constraints(w) == ((2, False), (3, False), (4, False))
    assert w.start + w.width - 1 == 4


def test_any_value_is_its_bits_in_index_order():
    w = WindowPattern(4, 5, 0b10110)
    assert constraints(w) == ((4, False), (5, True), (6, True), (7, False), (8, True))


def test_validation():
    with pytest.raises(ValueError, match="start"):
        WindowPattern(0, 1, 0)
    with pytest.raises(ValueError, match="width"):
        WindowPattern(1, 0, 0)
    with pytest.raises(ValueError, match="value"):
        WindowPattern(1, 3, 2**3)
    with pytest.raises(ValueError, match="value"):
        WindowPattern(1, 3, -1)
    with pytest.raises(ValueError):
        first_occurrence(1, -1)
    with pytest.raises(ValueError, match="width"):
        all_complement(1, 0)
    # the widest value of each width is valid
    assert constraints(WindowPattern(1, 3, 2**3 - 1)) == ((1, True), (2, True), (3, True))


def test_patterns_are_hashable_and_frozen():
    w = first_occurrence(1, 1)
    assert w == first_occurrence(1, 1)
    assert hash(w) == hash(first_occurrence(1, 1))
    with pytest.raises(AttributeError):
        w.start = 2
