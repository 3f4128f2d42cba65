"""The traced benchmark's span contract holds for the current code.

`perfbench/spans.py` wraps named snoidal functions; a rename or an
`__all__` drop makes `install` raise.  Installing and uninstalling the
tracer here turns such a break into a tier-1 failure.  The tracer also reads
`SplitStepper.advance`'s step count by position, which no rename check sees,
so a traced run's step total is checked too.
"""

import inspect
import math
from pathlib import Path

import numpy as np

import snoidal.cli as cli
import snoidal.evolution as evolution
from snoidal.waves import solve_modulus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    def contract():
        return (np.fft.rfft, evolution.conserved, evolution.SplitStepper.advance,
                evolution._OrbitDistance.__call__, cli._write_csv)

    originals = contract()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert np.fft.rfft is not originals[0]
        assert evolution.conserved is not originals[1]
    finally:
        tracer.uninstall()
    assert all(now is then for now, then in zip(contract(), originals))


def test_advance_spans_count_every_step(monkeypatch):
    # the tracer reads advance's fourth positional argument as its step
    # count; a reordered signature would give evolution.step_us a wrong
    # count and no error
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    parameters = inspect.signature(evolution.SplitStepper.advance).parameters
    assert list(parameters) == ["self", "ph", "pt", "nsteps", "start", "every", "ceiling"]
    # one form: run_experiment passes every argument, and no caller relies on a default
    assert all(p.default is inspect.Parameter.empty for p in parameters.values())
    wave = solve_modulus(math.pi, 0.95)
    tracer = spans.Tracer()
    tracer.install()
    try:
        [trace] = evolution.run_experiment(wave, [(0.0, None)], 0.05, 1e-3, 1, N=64)
    finally:
        tracer.uninstall()
    steps = [n.counts["steps"] for n in tracer.nodes if n.name == "evolution.advance"]
    assert len(steps) == 4 and sum(steps) == 50  # rows 1-15, 16-31, 32-47, 48-50
    assert trace.samples.shape[0] == 51
