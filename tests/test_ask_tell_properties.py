"""The one test of the ask/tell protocol: ``AskTellMachine``, a rule-based model of the
optimizer's rounds, runs random interleavings of good and bad calls in each mode at refresh
gaps 1, 3 and 5 and checks after every call that none corrupts the optimizer.

Hypothesis runs derandomized and without its example database, so the
examples, and this suite, are the same on every run.
"""

import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, precondition, rule,
                                 run_state_machine_as_test)

from tpcma.engine import CmaEs, RunAborted, RunConfig
from tpcma.objectives import ObjectiveSpec, evaluate_population


def bad_tells(f):
    """Each tell of the pending points that raises ValueError, given their values f, and the
    start of its message: a wrong shape, the right number of values as a column or a row
    included; NaN at each position beside f, +inf (whose count alone would abort) or -inf;
    and NaN alone."""
    for bad in (f[:-1], np.append(f, 1.0), f[:0], f[0], f[:, None], f[None]):
        yield bad, re.escape(f"expected fitness shape {f.shape}, got {np.shape(bad)}")
    for beside in (f, np.full_like(f, math.inf), np.full_like(f, -math.inf)):
        for i in range(len(f)):
            yield np.where(np.arange(len(f)) == i, math.nan, beside), "^NaN fitness; map failed"
    yield np.full_like(f, math.nan), "^NaN fitness; map failed"


def assert_same_state(a, b):
    for name in ("m", "sigma", "C", "p_c", "alpha_s", "p_sigma", "generation", "evals",
                 "best_x", "best_f"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    np.testing.assert_array_equal(np.array(a.trace), np.array(b.trace))


class AskTellMachine(RuleBasedStateMachine):
    """A model of the ask/tell rounds of one optimizer on the sphere, checked after every call.

    The model knows which round comes next, the pending points, the values of the accepted
    tells, the best of them and the abort, if a tell aborted; after an abort every ask and tell
    raises it again.
    """

    def __init__(self, controller, n, lam):
        super().__init__()
        self.spec = ObjectiveSpec("sphere", n)
        self.params = RunConfig(objective=self.spec, controller=controller, lam=lam).build_params()
        self.opt = self.new_optimizer()
        self.test_round = False  # whether the next ask forms the two test points
        self.pending = None  # the points of an untold ask, as handed out
        self.asked, self.accepted = [], []  # the points of each ask, the values of each tell
        self.best_f, self.best_x = math.inf, None
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
            assert info.value.optimizer is opt

    @rule()
    def ask(self):
        if self.aborted is not None or self.pending is not None:  # a RunAborted is a RuntimeError
            self.assert_rejected(self.opt.ask, RuntimeError, None if self.aborted else "twice")
            return
        self.pending = self.opt.ask()
        assert self.pending.shape == (2 if self.test_round else self.params.lam, self.spec.n)
        if self.test_round and self.params.mode == "tpa":  # about the updated mean
            np.testing.assert_allclose(self.pending.mean(axis=0), self.opt.m, rtol=0,
                                       atol=1e-12 * np.abs(self.pending).max())
        self.asked.append(self.pending.copy())

    @rule(call=st.sampled_from(("good", "good", "good", "inf")),
          count=st.sampled_from((1, 1, 1, 8)), position=st.integers(0, 8), positive=st.booleans())
    def tell(self, call, count, position, positive):
        if self.aborted is not None:  # told anything, good or not
            bad = np.ones(self.params.lam if positive else 2)
            self.assert_rejected(lambda: self.opt.tell(bad), RunAborted)
            return
        if self.pending is None:
            self.assert_rejected(lambda: self.opt.tell(np.ones(2)), RuntimeError, "without")
            return
        f = evaluate_population(self.spec, self.pending)
        if call == "inf":  # count values from position on; 8 +inf leave none to select
            picked = (position + np.arange(min(count, len(f)))) % len(f)
            f[picked] = math.inf if positive else -math.inf
        try:
            self.opt.tell(f)
        except RunAborted as exc:
            assert not self.test_round and positive and count == 8
            assert exc.optimizer is self.opt and exc.result is None
            self.aborted = exc
            return
        self.accepted.append(f)
        if f.min() < self.best_f:  # the first of equal values
            self.best_f, self.best_x = f.min(), self.pending[f.argmin()]
        self.pending = None
        self.test_round = not self.test_round and self.params.mode != "csa"

    @precondition(lambda self: self.aborted is None and not self.test_round)
    @rule(now=st.integers(0, 5))
    def infinite_population(self, now):
        # a population without a finite value, the abort a run on the sphere reaches, or one of
        # -inf alone, which is feasible; drawn rarely, so that most runs go on to the refreshes
        if now < 2:
            if self.pending is None:
                self.ask()
            self.tell("inf", 8, 0, now == 0)  # 8 values, as many as lam is here at most
            assert (self.aborted is not None) == (now == 0)

    @precondition(lambda self: self.aborted is None)
    @rule()
    def rejected_tells(self):
        # each leaves the optimizer as it was, so all are told, in the next round and, under a
        # two-point rule, the round after it
        for _ in range(1 if self.params.mode == "csa" else 2):
            if self.pending is None:
                self.ask()
            for bad, message in bad_tells(evaluate_population(self.spec, self.pending)):
                self.assert_rejected(lambda: self.opt.tell(bad), ValueError, message)
            self.tell("good", 1, 0, True)

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
        # a generation is lam evaluations, and 2 more for the test points of a two-point rule
        per_generation = 1 if self.params.mode == "csa" else 2
        assert len(self.opt.trace) == self.opt.generation == len(self.accepted) // per_generation
        assert self.opt.evals == sum(len(f) for f in self.accepted)
        assert self.opt.best_f == self.best_f
        np.testing.assert_array_equal(self.opt.best_x, self.best_x)

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
