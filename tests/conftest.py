import dataclasses

import pytest

from pulse2d.dispatch import PulseEvaluator


@pytest.fixture(scope="session")
def ev64():
    """Shared double-precision evaluator at the accuracy floor."""
    return PulseEvaluator(2e-16)


@pytest.fixture(scope="session")
def params64(ev64):
    return ev64.params


@pytest.fixture(scope="session")
def table_fields():
    """Function giving (name, value) for every field of a RuleTables and of
    each rule in it, the rules themselves left out."""
    def walk(obj, prefix=""):
        for f in dataclasses.fields(obj):
            v = getattr(obj, f.name)
            name = prefix + f.name
            if dataclasses.is_dataclass(v):
                yield from walk(v, name + ".")
            elif isinstance(v, tuple):
                for i, rule in enumerate(v):
                    yield from walk(rule, f"{name}[{i}].")
            else:
                yield name, v
    return walk
