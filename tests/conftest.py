import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from convexlab.sets import NumberSet

settings.register_profile(
    "exact",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# a deeper, randomized run of the kernel tests: pytest tests/test_kernel.py --hypothesis-profile=deep
settings.register_profile(
    "deep",
    max_examples=600,
    deadline=None,
    derandomize=False,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


def rationals(max_num: int = 10 ** 6, max_den: int = 10 ** 6):
    return st.fractions(
        min_value=Fraction(-max_num),
        max_value=Fraction(max_num),
        max_denominator=max_den,
    )


def number_sets(min_size=1, max_size=16, max_num=10 ** 6, max_den=10 ** 6):
    return st.lists(
        rationals(max_num, max_den), min_size=min_size, max_size=max_size, unique=True
    ).map(NumberSet)


def positive_number_sets(min_size=1, max_size=16, max_num=10 ** 4, max_den=100):
    return st.lists(
        st.fractions(min_value=Fraction(1, max_den), max_value=Fraction(max_num), max_denominator=max_den),
        min_size=min_size,
        max_size=max_size,
        unique=True,
    ).map(NumberSet)
