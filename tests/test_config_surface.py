"""Guard: every settable config knob is read, every behaviour option is
set, every counter is read, and every platform method is used, somewhere
in the simulator.

Four checks by name over the source tree under ``src/repro``:

* **Read** -- walks the dataclass trees of the platform, compiler and
  cost-model configurations and checks that each leaf field name appears
  as an attribute access (``ast.Attribute``).  A field nothing reads is a
  knob that silently does nothing when set; it should be deleted (or
  wired up) rather than left in the surface.
* **Set** -- every field of the *behaviour* configs must appear as a
  keyword argument (``ast.keyword``: a constructor call,
  ``dataclasses.replace`` or a platform variant).  An option no caller
  ever sets to another value is a constant in disguise and should become
  one.  The behaviour configs are ``PlatformConfig``'s own fields,
  ``VectorizerConfig`` and ``CostModelConfig``; the Table 2 hardware
  sub-trees (``ssd``, ``dram``, ``host_*``, ``cxl_pud``) describe the
  modelled system and are exempt.
* **Counters** -- every attribute updated with ``+=`` (or another
  augmented assignment) under ``src/repro`` must be loaded somewhere in
  ``src``, ``tests``, ``perfbench``, ``examples`` or ``benchmarks``.  A
  counter nothing reads is work on the hot path that reports nothing; it
  should be deleted.
* **Platform surface** -- every public method or property defined on
  ``SSDPlatform`` must be loaded as an attribute somewhere under
  ``src/repro`` outside ``core/platform.py``.  A platform method only
  tests call is a forwarder or dead code; callers should reach the
  backend registry, the residence index or the movement table directly.

All four checks are by name, so they cannot prove that a *particular*
config's field is read or set when another object shares the name -- they
catch knobs and counters that are read or set nowhere at all.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import typing
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

from repro.core.compiler.vectorizer import VectorizerConfig
from repro.core.offload.cost_model import CostModelConfig
from repro.core.platform import PlatformConfig, SSDPlatform

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src" / "repro"

#: Trees whose attribute loads count as reads of a counter.
READER_TREES = ("src", "tests", "perfbench", "examples", "benchmarks")

ROOTS = (PlatformConfig, VectorizerConfig, CostModelConfig)

#: Table 2 hardware sub-trees of ``PlatformConfig``: they describe the
#: modelled system rather than select a behaviour, so the set-guard skips
#: them.
HARDWARE_FIELDS = frozenset({"ssd", "dram", "host_cpu", "host_gpu",
                             "host_memory", "cxl_pud"})


def _config_class(annotation: object) -> type | None:
    """The ``*Config`` dataclass an annotation names (``Optional`` too)."""
    candidates = typing.get_args(annotation) or (annotation,)
    for candidate in candidates:
        if (isinstance(candidate, type) and dataclasses.is_dataclass(candidate)
                and candidate.__name__.endswith("Config")):
            return candidate
    return None


def _leaf_fields(cls: type, skip: frozenset = frozenset()
                 ) -> Iterator[Tuple[str, str]]:
    """``(owner class, field name)`` for every leaf of ``cls``'s tree,
    leaving out the fields (and sub-trees) named in ``skip``."""
    hints = typing.get_type_hints(cls)
    for spec_field in dataclasses.fields(cls):
        if spec_field.name in skip:
            continue
        child = _config_class(hints[spec_field.name])
        if child is not None:
            yield from _leaf_fields(child, skip)
        else:
            yield cls.__name__, spec_field.name


def _source_trees(root: Path = SOURCE_ROOT) -> Iterator[ast.AST]:
    for path in root.rglob("*.py"):
        yield ast.parse(path.read_text(), filename=str(path))


def _attribute_names() -> Set[str]:
    return {node.attr for tree in _source_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def _keyword_names() -> Set[str]:
    return {node.arg for tree in _source_trees() for node in ast.walk(tree)
            if isinstance(node, ast.keyword) and node.arg is not None}


def _counter_updates() -> Dict[str, List[str]]:
    """Attribute name -> ``file:line`` of each augmented assignment to it
    under ``src/repro``."""
    updates: Dict[str, List[str]] = {}
    for path in SOURCE_ROOT.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Attribute)):
                updates.setdefault(node.target.attr, []).append(
                    f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    return updates


def _loaded_attributes() -> Set[str]:
    return {node.attr for name in READER_TREES
            for tree in _source_trees(REPO_ROOT / name)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _platform_surface() -> List[str]:
    """Public methods and properties ``SSDPlatform`` itself defines."""
    return sorted(name for name, member in vars(SSDPlatform).items()
                  if not name.startswith("_")
                  and (inspect.isfunction(member)
                       or isinstance(member, property)))


def _loaded_outside_platform() -> Set[str]:
    platform_source = SOURCE_ROOT / "core" / "platform.py"
    return {node.attr for path in SOURCE_ROOT.rglob("*.py")
            if path != platform_source
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


PLATFORM_SURFACE = _platform_surface()

LEAVES = sorted({leaf for root in ROOTS for leaf in _leaf_fields(root)})

BEHAVIOUR = sorted({leaf for root in ROOTS
                    for leaf in _leaf_fields(root, HARDWARE_FIELDS)})


def test_walk_reaches_the_nested_configs():
    owners = {owner for owner, _ in LEAVES}
    assert {"NANDConfig", "DRAMConfig", "CXLPuDConfig", "PlatformConfig",
            "SSDEnergyConfig", "HostMemoryConfig"} <= owners


def test_behaviour_walk_skips_the_hardware_trees():
    names = {name for _, name in BEHAVIOUR}
    assert {"drive_age", "isp_cores", "contention_feedback"} <= names
    assert not names & (HARDWARE_FIELDS | {"page_size_bytes"})


@pytest.fixture(scope="module")
def attribute_names() -> Set[str]:
    return _attribute_names()


@pytest.fixture(scope="module")
def keyword_names() -> Set[str]:
    return _keyword_names()


@pytest.mark.parametrize("owner,name", LEAVES,
                         ids=[f"{owner}.{name}" for owner, name in LEAVES])
def test_config_field_is_read(owner, name, attribute_names):
    assert name in attribute_names, (
        f"{owner}.{name} is never read under src/repro; delete the knob "
        f"or wire it into the model")


@pytest.mark.parametrize("owner,name", BEHAVIOUR,
                         ids=[f"{owner}.{name}" for owner, name in BEHAVIOUR])
def test_behaviour_option_is_set(owner, name, keyword_names):
    assert name in keyword_names, (
        f"{owner}.{name} is never set by keyword under src/repro, so every "
        f"run uses its default; turn it into a constant")


def test_every_counter_is_read():
    loaded = _loaded_attributes()
    unread = {name: sites for name, sites in _counter_updates().items()
              if name not in loaded}
    assert not unread, (
        f"counters updated under src/repro but never read: {unread}; "
        f"delete them or report them")


def test_platform_surface_walk_finds_the_data_path():
    assert {"ensure_runs_at", "mark_produced_run",
            "setup_dataset"} <= set(PLATFORM_SURFACE)


@pytest.fixture(scope="module")
def loaded_outside_platform() -> Set[str]:
    return _loaded_outside_platform()


@pytest.mark.parametrize("name", PLATFORM_SURFACE)
def test_platform_member_is_used(name, loaded_outside_platform):
    assert name in loaded_outside_platform, (
        f"SSDPlatform.{name} is never read under src/repro outside "
        f"core/platform.py; delete it or call what it wraps directly")
