"""Input refusals have one home: the library raises InvalidInput, the CLI maps it."""

import inspect
import re
from pathlib import Path

import pytest

from spinsqueeze import cli, errors

SRC = Path(cli.__file__).resolve().parent


def test_library_raises_no_bare_value_error():
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"raise\s+ValueError\(", line)
    ]
    assert offenders == []


def test_every_invalid_input_is_a_value_error():
    subclasses = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.InvalidInput)
    ]
    names = {cls.__name__ for cls in subclasses}
    assert {"DimensionMismatch", "NormalizationError", "NonFiniteInput",
            "AllTrivialSubspins", "NotOatStart", "WrongClass"} < names
    for cls in subclasses:
        assert issubclass(cls, ValueError)
        assert issubclass(cls, errors.SpinSqueezeError)


@pytest.mark.parametrize(
    "exc, code",
    [
        (errors.InvalidInput("bad argument"), 1),
        (errors.NonFiniteInput("bad argument"), 1),
        (errors.SizeLimit("too large"), 2),
        (errors.VanishingMeanSpin("mean vanished"), 2),
    ],
)
def test_dispatch_maps_library_errors_to_exit_codes(monkeypatch, capsys, exc, code):
    def refuse(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_classify", refuse)
    assert cli.parse_and_dispatch(["classify", "--j", "1"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: classify: ")
    assert str(exc) in captured.err
