"""Property test of the experiment settings' judges: values of any type
either build an ExperimentConfig or raise ConfigError, and a problem that
one field brings in is listed whatever the other fields hold.

Hypothesis runs derandomized and without its example database, so the
examples, and this suite, are the same on every run.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcma.cli import ConfigError, ExperimentConfig
from tpcma.engine import CONTROLLERS
from tpcma.objectives import OBJECTIVE_KINDS
from tpcma.params import MAX_ENTRIES

# small ints cross every bound (0, 1 and 2); the larger ones reach MAX_ENTRIES, the
# largest n or lam, which no judge allocates for; 2**62 is a dimension no n-vector
# fits, and 10**400 an int that no float holds
SCALARS = st.one_of(
    st.integers(-2, 12),
    st.integers(13, MAX_ENTRIES),
    st.sampled_from((10**6, 10**9, 2**40, MAX_ENTRIES, 2**62, 10**400)),
    st.floats(),  # nan and ±inf included
    st.booleans(),
    st.sampled_from(OBJECTIVE_KINDS + tuple(CONTROLLERS)),
    st.text("ab1.", max_size=3),
    st.complex_numbers(),
    st.none(),
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=2), st.just(()))
ARRAYS = st.lists(st.integers(0, 3), min_size=2, max_size=2).map(np.array)
ENTRIES = st.lists(st.one_of(VALUES, ARRAYS), max_size=3)
# a grid is kept as a tuple if it is a tuple, list, range or 1-D array (an entry may be an
# array too), and is listed if it is no sequence: a scalar, a text, a set or a 2-D array
GRID_FORMS = st.one_of(
    ENTRIES.map(tuple),
    ENTRIES,
    st.builds(range, st.integers(-1, 3)),
    st.lists(st.integers(-1, 12), max_size=3).map(np.array),
    st.lists(st.sampled_from(OBJECTIVE_KINDS + tuple(CONTROLLERS)), max_size=3).map(np.array),
    st.lists(st.integers(0, 3), min_size=1, max_size=2).map(lambda row: np.array([row])),
    st.sets(st.integers(0, 3), max_size=2),
    SCALARS,
)
GRIDS = ("objectives", "dimensions", "controllers", "seeds")
SETTINGS = ("budget", "target_f", "tol_fun", "tol_x", "lam", "beta", "c_alpha", "sigma0",
            "noise_level", "condition", "restarts", "workers")
# each field is left at its default or drawn; a sequence m0, whose shape reads n,
# is the one setting that couples two fields, so m0 is drawn as a scalar
CONFIGS = st.fixed_dictionaries({}, optional={
    **{name: GRID_FORMS for name in GRIDS},
    **{name: VALUES for name in SETTINGS},
    "m0": SCALARS,
})


def problems(**values) -> list[str]:
    try:
        ExperimentConfig(**values)
    except ConfigError as exc:
        return str(exc).split("; ")
    return []


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(CONFIGS)
def test_a_problem_of_one_field_is_listed_whatever_the_others_hold(values):
    # any exception but ConfigError fails the test
    listed = problems(**values)
    for name, value in values.items():
        alone = problems(**{name: value})
        assert set(alone) <= set(listed), (name, alone, listed)


def test_judging_a_large_lam_allocates_no_weights():
    tracemalloc.start()
    try:
        ExperimentConfig(lam=10**6, seeds=(0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # building its recombination weights peaked at 15.3 MiB
