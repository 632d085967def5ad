"""The package's value classes keep what ``@dataclass(frozen=True)`` gave
them, and importing the CLI loads none of ``dataclasses``, ``inspect`` or
``typing``."""

import copy
import importlib
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import freequandle
from freequandle import basis as bs
from freequandle import conj_quandle as cq
from freequandle import independence as ind
from freequandle import subquandle as sq
from freequandle.free_group import Alphabet, Word

XY = Alphabet(("x", "y"))
A = cq.parse_element(XY, "x^(y)")
B = cq.parse_element(XY, "y")
C = sq.closure([A, B], 2)
LEAF = sq.QuandleTerm(leaf=0)
HALL = ind.IndependenceReport("hall", True)

# each class with its fields in constructor order, split into those without
# a default and those with one, and one field with another value
VALUES = [
    (Alphabet, {"names": ("x", "y")}, {}, ("names", ("x", "z"))),
    (Word, {"alphabet": XY}, {"letters": (2, 1)}, ("letters", (2,))),
    (cq.QuandleElement, {"axis": 0, "tail": Word(XY, (2,))}, {},
     ("tail", Word(XY, (-2,)))),
    (cq.AxiomFailure, {"law": "idempotence_right", "elements": (A,)}, {},
     ("elements", (B,))),
    (cq.AxiomReport, {"alphabet": XY, "samples": 3, "seed": 5},
     {"checked": {"idempotence_right": 3}, "failures": ()}, ("seed", 6)),
    (ind.IndependenceReport, {"method": "nielsen", "passed": False},
     {"detail": "rank 1", "failing_pair": ("x", "y"), "cancellation_depth": 1},
     ("passed", True)),
    (sq.QuandleTerm, {}, {"eps": 1, "left": LEAF, "right": sq.QuandleTerm(leaf=1), "leaf": None},
     ("eps", -1)),
    (sq.ClosureSet, {"generators": C.generators, "bound": C.bound, "raw": C.raw, "steps": C.steps},
     {"max_elements": 100}, ("max_elements", 99)),
    (bs.ShrinkMove, {"target": A, "by": B, "eps": 1, "result": A}, {}, ("eps", -1)),
    (bs.BasisReport, {"input_generators": (A, B), "bound": 2, "candidate": (A, B),
                      "method": "paper", "witnesses": {A: LEAF}, "hall_verdict": HALL,
                      "nielsen_verdict": HALL},
     {"moves": (), "stable": True}, ("bound", 3)),
]


@pytest.mark.parametrize("cls, required, optional, change", VALUES,
                         ids=[v[0].__name__ for v in VALUES])
class TestValueClass:
    def test_built_by_position_or_name(self, cls, required, optional, change):
        fields = {**required, **optional}
        value = cls(*fields.values())
        assert value == cls(**fields) == cls(*required.values(), **optional)
        assert {name: getattr(value, name) for name in fields} == fields

    def test_equal_by_fields(self, cls, required, optional, change):
        fields = {**required, **optional}
        a, b = cls(**fields), cls(**fields)
        assert a == b and not a != b
        assert a != cls(**{**fields, change[0]: change[1]})
        if any(isinstance(v, dict) for v in fields.values()):
            with pytest.raises(TypeError):  # a dict field is unhashable
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert {a: 1}[b] == 1

    def test_unequal_to_another_class(self, cls, required, optional, change):
        fields = {**required, **optional}
        twin = type("Twin", (cls,), {})(**fields)
        a = cls(**fields)
        assert a.__eq__(twin) is NotImplemented
        assert a != twin and twin != a
        assert twin == type(twin)(**fields)

    def test_frozen(self, cls, required, optional, change):
        fields = {**required, **optional}
        a = cls(**fields)
        for name in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, change[1])
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == cls(**fields)

    def test_repr_names_the_fields(self, cls, required, optional, change):
        fields = {**required, **optional}
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({shown})"

    def test_copies_and_pickles(self, cls, required, optional, change):
        a = cls(**required, **optional)
        assert copy.copy(a) == a
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a

    def test_constructor_rejects_bad_calls(self, cls, required, optional, change):
        fields = {**required, **optional}
        first = next(iter(fields))
        with pytest.raises(TypeError):
            cls(*fields.values(), None)  # one too many
        with pytest.raises(TypeError):
            cls(*fields.values(), **{first: fields[first]})  # given twice
        with pytest.raises(TypeError):
            cls(**fields, other=None)
        if required:
            with pytest.raises(TypeError):
                cls(*list(required.values())[:-1])  # one short
            with pytest.raises(TypeError):
                cls(**{name: fields[name] for name in list(fields)[1:]})


def test_defaults():
    report = cq.AxiomReport(XY, 3, 5)
    assert (report.checked, report.failures) == ({}, ())
    assert ind.IndependenceReport("hall", True) == ind.IndependenceReport("hall", True, "", None, None)
    assert sq.QuandleTerm() == sq.QuandleTerm(None, None, None, None)
    assert sq.ClosureSet(C.generators, C.bound, C.raw, C.steps).max_elements is None
    assert Word(XY).letters == ()


def test_only_value_defines_equality_and_hashing():
    owners = set()
    for info in pkgutil.iter_modules(freequandle.__path__):
        module = importlib.import_module(f"freequandle.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                owners |= {f"{cls.__qualname__}.{name}" for name in ("__eq__", "__hash__")
                           if name in vars(cls)}
    assert owners == {"_Value.__eq__", "_Value.__hash__"}


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # nor random, which only verify-axioms imports; -S keeps site's own
    # imports out, so only the package's are seen
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import freequandle.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'random'}"
            " & sys.modules.keys()))")
    src = str(Path(freequandle.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
