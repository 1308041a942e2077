"""Spans recorded from outside the package, by wrapping module attributes.

The engine reaches its layers through module attributes
(``sampler.decompose``, ``recombine.rank``, ``cov_mod.update_covariance``,
``stepsize.tpa_update``, ``obj_mod.evaluate_population``, ...), so
replacing those attributes for the duration of a traced pass sees every
call without changing ``src/``.  Spans stay in memory as flat arrays and
are written out once the pass is over.
"""

from __future__ import annotations

import contextlib
import math
import time
from array import array

import numpy as np

import tpcma.cli as cli_mod
import tpcma.covariance as cov_mod
import tpcma.engine as engine_mod
import tpcma.objectives as obj_mod
import tpcma.recombine as recombine_mod
import tpcma.sampler as sampler_mod
import tpcma.stepsize as stepsize_mod
from workloads import CONTROLLERS

RUN = "engine.run"
DECOMPOSE = "sampler.decompose"
EVALUATE = "objectives.evaluate_population"
TPA_UPDATE = "stepsize.tpa_update"
WRITE_CSV = "cli.write_trace_csv"
DEFAULT_PARAMS = "params.default_params"


# (module, attribute, span name, count(args, result) -> (a, b) or None)
TARGETS = (
    (sampler_mod, "decompose", DECOMPOSE, lambda args, out: (int(out.repaired), 0)),
    (sampler_mod, "sample_population", "sampler.sample_population", None),
    (recombine_mod, "rank", "recombine.rank", None),
    (recombine_mod, "weighted_mean_step", "recombine.weighted_mean_step", None),
    (recombine_mod, "update_mean", "recombine.update_mean", None),
    (cov_mod, "update_path", "covariance.update_path", None),
    (cov_mod, "update_covariance", "covariance.update_covariance", None),
    (cov_mod, "stall_indicator", "covariance.stall_indicator", None),
    (stepsize_mod, "tpa_test_points", "stepsize.tpa_test_points", None),
    (
        stepsize_mod,
        "tpa_update",
        TPA_UPDATE,
        lambda args, out: (int(math.isinf(args[1]) and math.isinf(args[2])), 0),
    ),
    (stepsize_mod, "csa_update", "stepsize.csa_update", None),
    (stepsize_mod, "csa_stall_indicator", "stepsize.csa_stall_indicator", None),
    (
        obj_mod,
        "evaluate_population",
        EVALUATE,
        lambda args, out: (len(out), int(np.isinf(out).sum())),
    ),
    (engine_mod, "default_params", DEFAULT_PARAMS, None),
    (cli_mod, "run", RUN, None),
    (cli_mod, "write_trace_csv", WRITE_CSV, lambda args, out: (len(args[2].trace), 0)),
)


class Tracer:
    """In-memory spans: name, start, end, parent span and two counts.

    ``tag`` labels the spans opened while it is set (the controller under
    measurement), so per-layer figures can be split by controller.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[str] = []
        self._tag_ids: dict[str, int] = {}
        self.name = array("q")
        self.tag = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.count_a = array("q")
        self.count_b = array("q")
        self._stack = [-1]
        self._tag = -1

    def _id(self, table: dict[str, int], labels: list[str], label: str) -> int:
        if label not in table:
            table[label] = len(labels)
            labels.append(label)
        return table[label]

    def set_tag(self, tag: str) -> None:
        self._tag = self._id(self._tag_ids, self.tags, tag)

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._id(self._name_ids, self.names, name))
        self.tag.append(self._tag)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self.count_a.append(0)
        self.count_b.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        i = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def wrap(self, fn, name: str, count):
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if count is not None:
                self.count_a[i], self.count_b[i] = count(args, out)
            return out

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "tag": np.frombuffer(self.tag, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "count_a": np.frombuffer(self.count_a, dtype=np.int64),
            "count_b": np.frombuffer(self.count_b, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), tags=np.array(self.tags), **self.arrays()
        )


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced module attribute through ``tracer`` while active."""
    saved = []
    try:
        for module, attr, name, count in TARGETS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- per-layer figures --------------------------------------------------------

PER_GEN_LAYERS = {
    "sampler.decompose": ("tpa", "csa"),
    "sampler.sample_population": ("tpa", "csa"),
    "recombine.rank": ("tpa", "csa"),
    "recombine.weighted_mean_step": ("tpa", "csa"),
    "recombine.update_mean": ("tpa", "csa"),
    "covariance.update_covariance": ("tpa", "csa"),
    "covariance.update_path": ("tpa", "csa"),
    "covariance.stall_indicator": ("tpa",),
    "stepsize.tpa_test_points": ("tpa",),
    "stepsize.tpa_update": ("tpa",),
    "stepsize.csa_update": ("csa",),
    "stepsize.csa_stall_indicator": ("csa",),
    "objectives.evaluate_population": ("tpa", "csa"),
}


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str, int]]:
    """Per-layer figures as (value, unit, samples), times split by controller.

    Per-generation times divide a layer's total span time by the number of
    generations (one ``decompose`` call each).  Engine self time is the run
    span minus the time its direct traced children cover.  Generation
    times are the spacings of successive ``decompose`` calls within one run.
    A layer the pass never calls reads 0.
    """
    a = tracer.arrays()
    dur = (a["end"] - a["start"]).astype(float) / 1e3  # microseconds
    ids = {n: i for i, n in enumerate(tracer.names)}
    has_parent = a["parent"] >= 0
    child_us = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))

    def spans(name, tag=None):
        sel = a["name"] == ids.get(name, -2)
        if tag is not None:
            sel &= a["tag"] == (tracer.tags.index(tag) if tag in tracer.tags else -2)
        return sel

    out: dict[str, tuple[float, str, int]] = {}
    for ctl in CONTROLLERS:
        dec = spans(DECOMPOSE, ctl)
        gens = int(dec.sum())
        per_gen = 1.0 / max(gens, 1)
        for layer, ctls in PER_GEN_LAYERS.items():
            if ctl in ctls:
                total = float(dur[spans(layer, ctl)].sum())
                out[f"{layer}.us_per_gen.{ctl}"] = (total * per_gen, "us", gens)
        out[f"sampler.decompose.repaired_share.{ctl}"] = (
            float(a["count_a"][dec].sum()) * per_gen,
            "share",
            gens,
        )
        ev = spans(EVALUATE, ctl)
        rows = int(a["count_a"][ev].sum())
        out[f"objectives.infeasible_share.{ctl}"] = (
            float(a["count_b"][ev].sum()) / max(rows, 1),
            "share",
            rows,
        )
        runs = spans(RUN, ctl)
        out[f"engine.self_us_per_gen.{ctl}"] = (
            float((dur[runs] - child_us[runs]).sum()) * per_gen,
            "us",
            gens,
        )
        same_run = a["parent"][dec][1:] == a["parent"][dec][:-1]
        spacing = np.diff(a["start"][dec])[same_run].astype(float) / 1e3
        p50, p99 = np.percentile(spacing, [50.0, 99.0]) if spacing.size else (0.0, 0.0)
        out[f"engine.gen_us_p50.{ctl}"] = (float(p50), "us", spacing.size)
        out[f"engine.gen_us_p99.{ctl}"] = (float(p99), "us", spacing.size)
        if ctl == "tpa":
            # test points are evaluated two at a time; populations have lam >= 4
            test_rows = 2 * int((a["count_a"][ev] == 2).sum())
            out["engine.test_eval_share.tpa"] = (test_rows / max(rows, 1), "share", rows)
            upd = spans(TPA_UPDATE, ctl)
            out["stepsize.both_infeasible_count.tpa"] = (
                float(a["count_a"][upd].sum()),
                "count",
                int(upd.sum()),
            )
    csv = spans(WRITE_CSV)
    csv_rows = int(a["count_a"][csv].sum())
    out["cli.write_trace_csv.us_per_row"] = (
        float(dur[csv].sum()) / csv_rows if csv_rows else 0.0,
        "us",
        csv_rows,
    )
    par = spans(DEFAULT_PARAMS)
    out["params.default_params.us_per_call"] = (
        float(dur[par].mean()) if par.any() else 0.0,
        "us",
        int(par.sum()),
    )
    return out
