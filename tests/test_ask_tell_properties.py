"""Property tests of the ask/tell state machine: random interleavings of
good and bad calls never corrupt the optimizer.  A rule-based model checks
this after every call, in each mode at refresh gaps 1, 3 and 5.

Hypothesis runs derandomized and without its example database, so the
examples, and this suite, are the same on every run.
"""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, precondition, rule,
                                 run_state_machine_as_test)

from tpcma.engine import CmaEs, RunAborted, RunConfig
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


class AskTellMachine(RuleBasedStateMachine):
    """A model of the ask/tell rounds of one optimizer on the sphere, checked after every call.

    The model knows which round comes next, the pending points, the values of the accepted
    tells and the abort, if a tell aborted; after an abort every ask and tell raises it again.
    """

    def __init__(self, controller, n, lam):
        super().__init__()
        self.spec = ObjectiveSpec("sphere", n)
        self.params = RunConfig(objective=self.spec, controller=controller, lam=lam).build_params()
        self.opt = self.new_optimizer()
        self.test_round = False  # whether the next ask forms the two test points
        self.pending = None  # the points of an untold ask, as handed out
        self.asked, self.accepted = [], []  # the points of each ask, the values of each tell
        self.aborted = None

    def new_optimizer(self):
        return CmaEs(self.params, np.ones(self.spec.n), 0.5, rng=np.random.default_rng(7))

    def assert_rejected(self, call, error, match=None):
        # a rejected call leaves the pending points, the random stream and the counters
        opt = self.opt
        before = opt.rng.bit_generator.state, opt.evals, opt.generation
        with pytest.raises(error, match=match) as info:
            call()
        assert opt._pending is self.pending
        assert (opt.rng.bit_generator.state, opt.evals, opt.generation) == before
        if self.aborted is not None:  # the first abort, again
            assert type(info.value) is RunAborted and str(info.value) == str(self.aborted)

    @rule()
    def ask(self):
        if self.aborted is not None or self.pending is not None:
            self.assert_rejected(self.opt.ask, RuntimeError)  # a RunAborted is one too
            return
        self.pending = self.opt.ask()
        assert self.pending.shape == (2 if self.test_round else self.params.lam, self.spec.n)
        self.asked.append(self.pending.copy())

    @rule(call=st.sampled_from(("good", "good", "good", "inf", "short", "long", "nan")),
          count=st.sampled_from((1, 1, 1, 8)), position=st.integers(0, 8), positive=st.booleans())
    def tell(self, call, count, position, positive):
        if self.aborted is not None:  # told anything, good or not
            self.assert_rejected(lambda: self.opt.tell(np.ones(self.params.lam)), RunAborted)
            return
        if self.pending is None:
            self.assert_rejected(lambda: self.opt.tell(np.ones(2)), RuntimeError, "without")
            return
        f = evaluate_population(self.spec, self.pending)
        if call == "inf":  # count values from position on; 8 +inf leave none to select
            picked = (position + np.arange(min(count, len(f)))) % len(f)
            f[picked] = math.inf if positive else -math.inf
        elif call == "nan":
            f[position % len(f)] = math.nan
        elif call in ("short", "long"):
            f = f[:-1] if call == "short" else np.append(f, 1.0)
        if call in ("short", "long", "nan"):
            self.assert_rejected(lambda: self.opt.tell(f), ValueError)
            return
        try:
            self.opt.tell(f)
        except RunAborted as exc:
            assert not self.test_round and positive and count == 8
            assert exc.optimizer is self.opt and exc.result is None
            self.aborted = exc
            return
        self.accepted.append(f)
        self.pending = None
        self.test_round = not self.test_round and self.params.mode != "csa"

    @precondition(lambda self: self.aborted is None and self.pending is not None
                  and not self.test_round)
    @rule(now=st.integers(0, 3))
    def abort(self, now):
        # a population without a finite value, the abort a run on the sphere reaches; drawn
        # rarely, so that most runs go on to the refreshes
        if now == 0:
            self.tell("inf", 8, 0, True)  # 8 +inf, as many as lam is here at most
            assert self.aborted is not None

    @rule(rounds=st.integers(1, 6))
    def good_rounds(self, rounds):
        # asks and good tells alone, so that runs reach the refreshes at gaps 3 and 5
        for _ in range(rounds):
            if self.pending is None:
                self.ask()
            self.tell("good", 1, 0, True)

    @rule()
    def read_C(self):
        C = self.opt.C
        assert C.shape == (self.spec.n, self.spec.n)
        np.testing.assert_array_equal(self.opt.C, C)  # reading folds nothing in

    @rule()
    def should_stop(self):
        # tol_x reads C's largest variance from the kept generations, without forming C
        opt, criteria = self.opt, self.opt.criteria
        assert opt.should_stop() is None
        if self.test_round or self.aborted is not None:
            return
        spread = opt.sigma * math.sqrt(np.diag(opt.C).max())
        try:
            opt.criteria = replace(criteria, tol_x=spread * (1 + 1e-9))
            assert opt.should_stop() == "tol_x"
            opt.criteria = replace(criteria, tol_x=spread * (1 - 1e-9))
            assert opt.should_stop() is None
        finally:
            opt.criteria = criteria

    @precondition(lambda self: self.aborted is not None)
    @rule()
    def pickle_abort(self):
        copied = pickle.loads(pickle.dumps(self.aborted))
        assert type(copied) is RunAborted and str(copied) == str(self.aborted)
        assert copied.result is None and copied.optimizer is not self.opt
        assert_same_state(copied.optimizer, self.opt)

    @invariant()
    def counters(self):
        assert len(self.opt.trace) == self.opt.generation
        assert self.opt.evals == sum(len(f) for f in self.accepted)

    @invariant()
    def no_stop_in_a_test_round(self):
        if self.test_round:
            assert self.opt.should_stop() is None

    @invariant()
    def C_is_a_covariance(self):
        if self.aborted is None:
            C = self.opt.C
            assert not C.flags.writeable
            np.testing.assert_array_equal(C, C.T)
            assert np.isfinite(C).all()

    def teardown(self):
        # a fresh optimizer fed only the accepted calls, never reading C or should_stop(),
        # asks the same points and ends in the same state
        ref = self.new_optimizer()
        for points, f in zip(self.asked, self.accepted):
            np.testing.assert_array_equal(ref.ask(), points)
            ref.tell(f)
        if len(self.asked) > len(self.accepted):
            np.testing.assert_array_equal(ref.ask(), self.asked[-1])
        assert_same_state(self.opt, ref)


# (n, lam) at refresh gaps 1, 3 and 5: C is folded every generation, or every 3rd or 5th
@pytest.mark.parametrize("n, lam", [(3, None), (12, 4), (20, 4)], ids=["gap1", "gap3", "gap5"])
@pytest.mark.parametrize("controller", ["tpa", "tpa_legacy", "csa"])
def test_the_ask_tell_machine_keeps_its_invariants(controller, n, lam):
    run_state_machine_as_test(
        lambda: AskTellMachine(controller, n, lam),
        settings=settings(derandomize=True, database=None, max_examples=10,
                          stateful_step_count=60, deadline=None))
