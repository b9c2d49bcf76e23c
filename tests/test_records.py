"""The record types: fields, immutability, repr and equality, and the
modules that importing the package loads.

Each record is a typing.NamedTuple, so it is also a tuple: it iterates,
indexes and compares equal to a plain tuple of its fields.
"""
import os
import pathlib
import subprocess
import sys

import pytest
from mpmath import mpc, mpf

import touchard
from touchard import (AiryMethod, AiryValue, ContourPolyline, ContourSet,
                      ExactValue, PoincareRegime, PoincareResult, SaddleKind,
                      SaddlePair, StirlingTriangle, UniformIngredients,
                      mk_context, wrap_real)
from touchard.cli import ErrorRow
from touchard.numkernel import BigReal, PrecisionContext


def real(v):
    return wrap_real(v, mk_context(40))


def saddles():
    return SaddlePair(kind=SaddleKind.REAL_PAIR, t0=mpc(-0.5), t1=mpc(-2),
                      residual0=mpf(0), residual1=mpf("1e-50"))


def polyline():
    return ContourPolyline(saddle=mpc(-1, 0.5), kind="descent",
                           points=(-1 + 0.5j, -1.1 + 0.4j),
                           im_psi_drift=mpf("2e-31"), launch_theta=0.25,
                           stop_reason="max_len")


# (type, today's field names in order, a builder of one record; each call
# makes new field values, equal to the last call's)
RECORDS = [
    (PrecisionContext, ("digits",), lambda: PrecisionContext(digits=40)),
    (BigReal, ("value", "ctx"), lambda: real("1.5")),
    (AiryValue, ("ai", "ai_prime", "method"),
     lambda: AiryValue(ai=mpf("0.25"), ai_prime=mpf("-0.125"),
                       method=AiryMethod.MACLAURIN)),
    (SaddlePair, ("kind", "t0", "t1", "residual0", "residual1"), saddles),
    (UniformIngredients,
     ("xi", "zeta", "beta", "A0", "B0", "saddles", "digits"),
     lambda: UniformIngredients(xi=mpf(2), zeta=mpf("0.5"), beta=mpc(1, -1),
                                A0=mpf("1.25"), B0=mpf("-0.75"),
                                saddles=saddles(), digits=53)),
    (PoincareResult, ("value", "regime", "t0_used"),
     lambda: PoincareResult(value=real(3), regime=PoincareRegime.ABOVE,
                            t0_used=mpc(-0.25))),
    (StirlingTriangle, ("rows",),
     lambda: StirlingTriangle(rows={2: (0, 1, 1)})),
    (ExactValue, ("value", "cancellation_digits"),
     lambda: ExactValue(value=real("0.75"), cancellation_digits=3)),
    (ContourPolyline, ("saddle", "kind", "points", "im_psi_drift",
                       "launch_theta", "stop_reason"), polyline),
    (ContourSet, ("xi", "mu", "saddle_kind", "polylines"),
     lambda: ContourSet(xi=real("0.8"), mu=real("0.45"),
                        saddle_kind=SaddleKind.REAL_PAIR,
                        polylines=(polyline(),))),
    (ErrorRow, ("n", "param", "exact", "approx", "rel_err"),
     lambda: ErrorRow(n=81, param=real("1.01"), exact=real("0.5"),
                      approx=real("0.5025"), rel_err=mpf("5e-3"))),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,fields,make", RECORDS, ids=IDS)
class TestRecordContract:
    def test_fields_in_order(self, cls, fields, make):
        record = make()
        assert cls._fields == fields
        assert type(record) is cls

    def test_fields_cannot_be_set(self, cls, fields, make):
        record = make()
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_repr_names_each_field(self, cls, fields, make):
        record = make()
        assert repr(record) == cls.__name__ + "(" + ", ".join(
            f"{name}={getattr(record, name)!r}" for name in fields) + ")"

    def test_equal_fields_make_equal_records(self, cls, fields, make):
        a, b = make(), make()
        assert a is not b and a == b
        if cls is StirlingTriangle:  # its rows are a dict, as they were
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_a_record_is_the_tuple_of_its_fields(self, cls, fields, make):
        record = make()
        values = tuple(getattr(record, name) for name in fields)
        assert tuple(record) == values and record == values
        assert record[0] is values[0] and len(record) == len(fields)


def test_import_leaves_out_dataclasses_and_inspect():
    src = pathlib.Path(touchard.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", "import touchard.cli, sys; print(sorted("
         "m for m in ('dataclasses', 'inspect') if m in sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
