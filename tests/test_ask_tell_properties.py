"""Property tests of the ask/tell state machine: random interleavings of
good and bad calls never corrupt the optimizer.

Hypothesis runs derandomized and without its example database, so the
examples, and this suite, are the same on every run.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcma.engine import CmaEs, RunConfig
from tpcma.objectives import ObjectiveSpec, evaluate_population

SPEC = ObjectiveSpec("sphere", 3)  # lam = 7

# (call, position, sign): an ask, a good tell, a tell with one +inf or -inf
# value (accepted), or a tell of the wrong length or with a NaN (rejected);
# position and sign place the changed value.  Asks and good tells are
# listed twice so that most sequences complete a few generations.
CALLS = st.tuples(
    st.sampled_from(("ask", "ask", "tell", "tell", "inf", "short", "long", "nan")),
    st.integers(0, 8),
    st.booleans(),
)


def new_optimizer(controller):
    params = RunConfig(objective=SPEC, controller=controller).build_params()
    return CmaEs(params, np.ones(3), 0.5, rng=np.random.default_rng(7))


def fitnesses(call, points, position, positive):
    f = evaluate_population(SPEC, points)
    if call == "inf":
        f[position % len(f)] = math.inf if positive else -math.inf
    elif call == "nan":
        f[position % len(f)] = math.nan
    elif call == "short":
        f = f[:-1]
    elif call == "long":
        f = np.append(f, 1.0)
    return f


def assert_same_state(a, b):
    for name in ("m", "sigma", "C", "p_c", "alpha_s", "p_sigma", "generation", "evals",
                 "best_x", "best_f"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    np.testing.assert_array_equal(np.array(a.trace), np.array(b.trace))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    controller=st.sampled_from(("tpa", "tpa_legacy", "csa")),
    calls=st.lists(CALLS, min_size=20, max_size=80),
)
def test_rejected_calls_change_nothing(controller, calls):
    opt = new_optimizer(controller)
    asked, accepted = [], []  # the points of each ask, the values of each accepted tell
    for call, position, positive in calls:
        pending, rng_state, evals = opt._pending, opt.rng.bit_generator.state, opt.evals
        if call == "ask" and pending is None:
            asked.append(opt.ask().copy())
            continue
        if call in ("tell", "inf") and pending is not None:
            f = fitnesses(call, pending, position, positive)
            opt.tell(f)
            accepted.append(f)
            assert opt.evals == evals + len(f)
            continue
        if call == "ask":
            with pytest.raises(RuntimeError, match="ask"):
                opt.ask()
        elif pending is None:
            with pytest.raises(RuntimeError, match="without a pending ask"):
                opt.tell(np.ones(2))
        else:
            with pytest.raises(ValueError):
                opt.tell(fitnesses(call, pending, position, positive))
        # a rejected call leaves the pending points and the random stream as they were
        assert opt._pending is pending
        assert opt.rng.bit_generator.state == rng_state
        assert opt.evals == evals
    assert opt.evals == sum(len(f) for f in accepted)

    # a run that only ever saw the accepted calls asks the same points and
    # ends in the same state with the same trace
    ref = new_optimizer(controller)
    for points, f in zip(asked, accepted):
        np.testing.assert_array_equal(ref.ask(), points)
        ref.tell(f)
    if len(asked) > len(accepted):
        np.testing.assert_array_equal(ref.ask(), asked[-1])
    assert_same_state(opt, ref)
