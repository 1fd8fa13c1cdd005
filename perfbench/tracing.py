"""Spans recorded from outside the program, and the per-layer probe.

Every span is timed around a call into a public ``avfuse`` function, either
directly by the harness or through a temporary wrapper installed on the
function for the length of a traced round.  Nothing inside ``avfuse`` is
edited.  Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

from avfuse import autodiff as ad
from avfuse import evaluation, model, training
from avfuse.autodiff import Tape, Tensor
from avfuse.objective import aam_loss
from avfuse.temporal import asp, blstm_forward, project_embedding

# The embedding stack in the order VerificationModel.embed_tensors runs it,
# followed by the AAM head.  A model without a BLSTM passes the fused features
# through unchanged; that stage then records no tape entries.
LAYERS = ("fusion", "temporal.blstm", "temporal.asp", "temporal.projection", "objective.aam")


class Tracer:
    """In-memory span log: name, start, end, parent span index, utterance id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, utt: str | None = None):
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "utt": utt}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def values(self, name: str, key: str) -> list:
        return [s[key] for s in self.spans if s["name"] == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


@contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)`` until the block exits."""
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def step_clock(ends: list[float]):
    """Append the time at which each ``Optimizer.step`` returns."""
    def wrap(step):
        def timed_step(self):
            step(self)
            ends.append(perf_counter())
        return timed_step

    with patched(training.Optimizer, "step", wrap):
        yield


def _spanned(tracer: Tracer, name: str, records=None):
    def wrap(fn):
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                if records is not None:
                    span["records"] = records(args[0])
                return fn(*args, **kwargs)
        return traced
    return wrap


@contextmanager
def traced_calls(tracer: Tracer):
    """Span every call the harness cannot wrap itself because ``avfuse`` makes it."""
    with patched(training.Optimizer, "step", _spanned(tracer, "training.optimizer_step")), \
         patched(Tape, "backward", _spanned(tracer, "autodiff.backward", records=len)), \
         patched(model.VerificationModel, "save", _spanned(tracer, "checkpoint.save")), \
         patched(evaluation, "score_trials", _spanned(tracer, "evaluation.score_trials")), \
         patched(evaluation, "compute_report", _spanned(tracer, "metrics.compute_report")):
        yield


def _stage(vm, name: str, x):
    if name == "fusion":
        return vm.fuse(*x)
    if name == "temporal.blstm":
        return x if vm.blstm is None else blstm_forward(x, vm.blstm)
    if name == "temporal.asp":
        return asp(x, vm.asp)
    return project_embedding(x, vm.projection)


def probe_layers(vm, audio: np.ndarray, visual: np.ndarray, label: int,
                 tracer: Tracer | None = None, utt: str | None = None) -> dict:
    """Run the model one layer at a time, each on its own tape, forward then backward.

    Each layer takes a detached copy of the previous layer's output.  Its
    backward is a replay of its own tape under the probe loss
    ``sum(output * upstream_grad)``, where the upstream gradient is the
    ``.grad`` its output copy received from the next layer.  Returns the loss
    and, per layer, the ``fwd`` and ``bwd`` (start, end) times and the tape
    ``records``.
    """
    def timed(name, phase, fn):
        with (tracer.span(f"{name}.{phase}", utt=utt) if tracer else nullcontext()):
            start = perf_counter()
            out = fn()
            return out, (start, perf_counter())

    inputs = (Tensor(audio), Tensor(visual))
    x = inputs
    stages = []  # (name, tape, input tensors, output)
    for name in LAYERS[:-1]:
        with Tape() as tape:
            out, fwd = timed(name, "fwd", lambda: _stage(vm, name, x))
        stages.append((name, tape, x, out, fwd))
        x = Tensor(out.data)
    with Tape() as tape:
        loss, fwd = timed("objective.aam", "fwd", lambda: aam_loss(x, label, vm.aam))
    records = len(tape)
    _, bwd = timed("objective.aam", "bwd", lambda: tape.backward(loss))
    result = {"loss": loss.item(),
              "objective.aam": {"fwd": fwd, "bwd": bwd, "records": records}}
    upstream = x.grad
    for name, tape, x_in, out, fwd in reversed(stages):
        records = len(tape)
        with tape:
            probe = ad.sum_all(ad.mul(out, Tensor(upstream)))
        _, bwd = timed(name, "bwd", lambda: tape.backward(probe))
        result[name] = {"fwd": fwd, "bwd": bwd, "records": records}
        if name != "fusion":
            upstream = x_in.grad
    return result
