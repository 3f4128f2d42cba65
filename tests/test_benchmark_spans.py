"""The traced benchmark's span contract holds for the current code.

`perfbench/spans.py` wraps named snoidal functions; a rename or an
`__all__` drop makes `install` raise.  Installing and uninstalling the
tracer here turns such a break into a tier-1 failure.
"""

from pathlib import Path

import numpy as np

import snoidal.cli as cli
import snoidal.evolution as evolution

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
