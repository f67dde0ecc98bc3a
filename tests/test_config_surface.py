"""Guard: every settable config knob is read somewhere in the simulator.

Walks the dataclass trees of the platform, runtime, compiler and
cost-model configurations and checks that each leaf field name appears as
an attribute access (``ast.Attribute``) somewhere under ``src/repro``.  A
field nothing reads is a knob that silently does nothing when set; it
should be deleted (or wired up) rather than left in the surface.

The check is by name, so it cannot prove that a *particular* config's
field is read when another object shares the name -- it catches knobs
that are read nowhere at all.
"""

from __future__ import annotations

import ast
import dataclasses
import typing
from pathlib import Path
from typing import Iterator, Set, Tuple

import pytest

from repro.core.compiler.vectorizer import VectorizerConfig
from repro.core.offload.cost_model import CostModelConfig
from repro.core.platform import PlatformConfig
from repro.core.runtime import RuntimeConfig

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

ROOTS = (PlatformConfig, RuntimeConfig, VectorizerConfig, CostModelConfig)


def _config_class(annotation: object) -> type | None:
    """The ``*Config`` dataclass an annotation names (``Optional`` too)."""
    candidates = typing.get_args(annotation) or (annotation,)
    for candidate in candidates:
        if (isinstance(candidate, type) and dataclasses.is_dataclass(candidate)
                and candidate.__name__.endswith("Config")):
            return candidate
    return None


def _leaf_fields(cls: type) -> Iterator[Tuple[str, str]]:
    """``(owner class, field name)`` for every leaf of ``cls``'s tree."""
    hints = typing.get_type_hints(cls)
    for spec_field in dataclasses.fields(cls):
        child = _config_class(hints[spec_field.name])
        if child is not None:
            yield from _leaf_fields(child)
        else:
            yield cls.__name__, spec_field.name


def _attribute_names() -> Set[str]:
    names: Set[str] = set()
    for path in SOURCE_ROOT.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        names.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute))
    return names


LEAVES = sorted({leaf for root in ROOTS for leaf in _leaf_fields(root)})


def test_walk_reaches_the_nested_configs():
    owners = {owner for owner, _ in LEAVES}
    assert {"NANDConfig", "DRAMConfig", "CXLPuDConfig", "LifetimeConfig",
            "SSDEnergyConfig", "HostMemoryConfig"} <= owners


@pytest.fixture(scope="module")
def attribute_names() -> Set[str]:
    return _attribute_names()


@pytest.mark.parametrize("owner,name", LEAVES,
                         ids=[f"{owner}.{name}" for owner, name in LEAVES])
def test_config_field_is_read(owner, name, attribute_names):
    assert name in attribute_names, (
        f"{owner}.{name} is never read under src/repro; delete the knob "
        f"or wire it into the model")
