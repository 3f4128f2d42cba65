"""The exception classes: one module defines them, every layer re-exports them."""

import copy
import pickle

import pytest

import snoidal
import snoidal.cli as cli
import snoidal.errors as errors
import snoidal.evolution as evolution
import snoidal.spectral as spectral
import snoidal.waves as waves

# Each class, by name, with the module that defined it before `errors` did.
HOMES = {
    "OutOfRangeError": waves,
    "ModulusBoundaryError": waves,
    "EigenSolveError": spectral,
    "SingularSystemError": spectral,
    "IndexMismatchError": spectral,
    "BlowUpError": evolution,
}


@pytest.mark.parametrize("name", sorted(HOMES))
def test_one_class_object_under_every_name(name):
    cls = getattr(errors, name)
    assert cls.__module__ == "snoidal.errors"
    assert getattr(HOMES[name], name) is cls
    assert name in HOMES[name].__all__ and name in errors.__all__
    if name in snoidal.__all__:
        assert getattr(snoidal, name) is cls


def test_cli_maps_exactly_the_six_classes_and_value_error():
    documented = {getattr(errors, name) for name in HOMES} | {ValueError}
    assert set(cli._DOCUMENTED) == documented
    assert len(cli._DOCUMENTED) == len(documented)


@pytest.mark.parametrize("roundtrip", [
    lambda exc: pickle.loads(pickle.dumps(exc)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_blow_up_error_round_trips(roundtrip, capsys):
    exc = errors.BlowUpError("||phi||_inf = 24.0178 exceeded ceiling 8.75982 at t = 0.0005",
                             0.0005, 3)
    back = roundtrip(exc)
    assert type(back) is errors.BlowUpError
    assert (str(back), back.time, back.member) == (str(exc), 0.0005, 3)
    assert back.args == exc.args
    assert cli._report(back) == 4
    assert capsys.readouterr().err == (
        "blow-up at t = 0.0005: ||phi||_inf = 24.0178 exceeded ceiling 8.75982 at t = 0.0005\n")


def test_blow_up_error_member_defaults_to_row_0():
    back = pickle.loads(pickle.dumps(errors.BlowUpError("over", 1.5)))
    assert (str(back), back.time, back.member) == ("over", 1.5, 0)
