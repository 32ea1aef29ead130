"""Reference routes that only the tests read."""

from klmov.characters import brauer_character
from klmov.errors import SizeMismatch


def multi_character(avec, mu):
    """Product of component-wise Brauer characters."""
    if len(avec) != len(mu):
        raise SizeMismatch("component counts differ")
    out = 1
    for a, m in zip(avec, mu):
        out *= brauer_character(a, m)
        if not out:
            return 0
    return out
