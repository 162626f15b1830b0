"""Value semantics of the package's immutable types, and the modules the
CLI imports at startup."""

import ast
import os
import subprocess
import sys

import pytest

import tetindex
from tetindex.identities import CheckReport
from tetindex.lattice import AffineForm, LatticeSumExpr
from tetindex.series import Frozen, QSeries

F = AffineForm

# each type with its field names in order, one valid value's fields, and
# the repr a frozen dataclass of those fields prints
CASES = [
    (QSeries, ("lead", "coeffs", "prec"), (-3, (2, 0, -1), 0),
     "QSeries(lead=-3, coeffs=(2, 0, -1), prec=0)"),
    (CheckReport, ("verified_to", "holds", "first_mismatch", "window"),
     (8, False, (3, 1, 2), 5),
     "CheckReport(verified_to=8, holds=False, first_mismatch=(3, 1, 2), window=5)"),
    (AffineForm, ("coeffs", "constant"), ((2, -2), 1),
     "AffineForm(coeffs=(2, -2), constant=1)"),
    (LatticeSumExpr, ("vars", "sign", "prefactor", "factors"),
     (("k",), 1, F((-2,), 0), ((F((0,), 0), F((2,), 0)),)),
     "LatticeSumExpr(vars=('k',), sign=1, prefactor=AffineForm(coeffs=(-2,), constant=0), "
     "factors=((AffineForm(coeffs=(0,), constant=0), AffineForm(coeffs=(2,), constant=0)),))"),
]
IDS = [case[0].__name__ for case in CASES]


def unchecked(cls, names, values):
    """A value of `cls` with the given fields, past `__init__`'s checks."""
    value = object.__new__(cls)
    for name, field in zip(names, values):
        object.__setattr__(value, name, field)
    return value


class Changed:
    """Unequal to every field value, so one field can be changed alone."""


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
class TestValueSemantics:
    def test_fields_in_order(self, cls, names, values, text):
        value = cls(*values)
        assert tuple(getattr(value, name) for name in names) == values
        assert cls(**dict(zip(names, values))) == value

    def test_equal_fields_give_equal_values_and_hashes(self, cls, names, values, text):
        # tuple(list(t)) is a new tuple: equal fields, not the same objects
        a = cls(*values)
        b = cls(*(tuple(list(v)) if isinstance(v, tuple) else v for v in values))
        assert a == b and not a != b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_one_field_changed_gives_unequal_values(self, cls, names, values, text):
        value = cls(*values)
        for i in range(len(names)):
            changed = unchecked(cls, names, values[:i] + (Changed(),) + values[i + 1:])
            assert value != changed and changed != value and not value == changed

    def test_another_class_is_unequal(self, cls, names, values, text):
        value = cls(*values)
        twin = type("Twin", (Frozen,), {"__slots__": cls.__slots__})
        assert value != unchecked(twin, names, values)
        assert value != values and value != list(values)
        assert value.__eq__(values) is NotImplemented

    def test_repr_is_the_dataclass_repr(self, cls, names, values, text):
        assert repr(cls(*values)) == text

    def test_fields_cannot_be_set_or_deleted(self, cls, names, values, text):
        value = cls(*values)
        for name in names:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, values[0])
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert tuple(getattr(value, name) for name in names) == values

    def test_not_a_tuple(self, cls, names, values, text):
        # a tuple subclass would repeat under 2 * value, iterate and order
        value = cls(*values)
        with pytest.raises(TypeError):
            2 * value
        with pytest.raises(TypeError):
            iter(value)
        with pytest.raises(TypeError):
            value < value


@pytest.mark.parametrize("make, message", [
    (lambda: QSeries(1, (), 0), "lead exceeds precision bound"),
    (lambda: QSeries(0, (1,), 2), "coefficient window does not match lead/prec"),
    (lambda: QSeries(0, (0, 1), 2), "non-canonical: leading coefficient is zero"),
    (lambda: CheckReport(8, True, (3, 1, 2)), "holds must mirror the absence of a mismatch"),
    (lambda: CheckReport(8, False), "holds must mirror the absence of a mismatch"),
    (lambda: LatticeSumExpr(("k",), 2, F((0,), 0), ()), "sign must be 1 or -1, got 2"),
    (lambda: LatticeSumExpr(("k",), 1, F((0, 0), 0), ()),
     "a form's coefficient count is not the rank 1"),
    (lambda: LatticeSumExpr(("k",), 1, F((0,), 0), ((F((1,), 0), F((2,), 0)),)),
     "charge form not integer-valued"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_defaults():
    report = CheckReport(8, True)
    assert (report.first_mismatch, report.window) == (None, None)


def test_cli_import_adds_no_dataclasses_or_inspect():
    # modules a site hook imported before the CLI are not counted
    src = os.path.dirname(os.path.dirname(tetindex.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import tetindex.cli; print(sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, src],
                          capture_output=True, text=True, check=True, timeout=60)
    added = set(ast.literal_eval(proc.stdout))
    assert "tetindex.cli" in added
    assert not added & {"dataclasses", "inspect"}
