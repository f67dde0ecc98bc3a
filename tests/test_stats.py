"""The stdlib statistics equal numpy's bit for bit, and numpy stays unloaded.

:mod:`repro.stats` replaces ``np.sum``, ``np.mean`` and ``np.percentile``
on the reported tail-latency figures, so every helper is checked against
numpy itself on random samples: equal bits, not approximately equal
floats.  numpy is imported here only, as the reference.  The import guard
runs the CLI with numpy made unimportable and checks that
``geometric_mean`` holds the only numpy import under ``src``.
"""

from __future__ import annotations

import ast
import math
import os
import random
import struct
import subprocess
import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats import pairwise_sum, mean, percentile, percentiles

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Lengths around numpy's pairwise boundaries: the 8-lane unroll and the
#: 128-value block.
EDGE_LENGTHS = (0, 1, 7, 8, 9, 127, 128, 129)
QUANTILES = (0.0, 50.0, 99.0, 99.9, 99.99, 100.0)

#: Finite floats; ``x or 0.0`` folds -0.0 into 0.0, whose order against
#: 0.0 after a sort is unspecified in numpy's partition.
_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(
    lambda x: x or 0.0)


@st.composite
def samples(draw, min_size=0):
    """A list of floats: hand-picked by Hypothesis when short, seeded
    random draws (latency-like or signed, wide-ranged) up to 5,000."""
    if draw(st.booleans()):
        return draw(st.lists(_FLOATS, min_size=min_size, max_size=64))
    size = draw(st.sampled_from(EDGE_LENGTHS) |
                st.integers(min_value=0, max_value=5000))
    size = max(size, min_size)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        return [rng.expovariate(1e-5) for _ in range(size)]
    return [rng.lognormvariate(0.0, 8.0) * rng.choice((-1.0, 1.0))
            for _ in range(size)]


@pytest.fixture(autouse=True)
def _quiet_numpy_overflow():
    """Wide samples overflow to inf in both implementations alike."""
    with np.errstate(over="ignore", invalid="ignore"):
        yield


def same_bits(mine: float, reference) -> bool:
    reference = float(reference)
    if math.isnan(mine) and math.isnan(reference):
        return True
    return struct.pack("<d", mine) == struct.pack("<d", reference)


class TestMatchesNumpy:
    @settings(max_examples=300, deadline=None)
    @given(samples())
    def test_sum(self, values):
        reference = np.sum(np.asarray(values, dtype=float))
        assert same_bits(pairwise_sum(values), reference)
        assert same_bits(pairwise_sum(array("d", values)), reference)

    @settings(max_examples=300, deadline=None)
    @given(samples(min_size=1))
    def test_mean(self, values):
        reference = np.mean(np.asarray(values, dtype=float))
        assert same_bits(mean(values), reference)
        assert same_bits(mean(array("d", values)), reference)

    @settings(max_examples=300, deadline=None)
    @given(samples(min_size=1),
           st.sampled_from(QUANTILES) | st.floats(0.0, 100.0))
    def test_percentile(self, values, q):
        reference = np.asarray(values, dtype=float)
        assert same_bits(percentile(values, q),
                         np.percentile(reference, q))
        together = percentiles(array("d", values), QUANTILES)
        for mine, theirs in zip(together,
                                np.percentile(reference, QUANTILES)):
            assert same_bits(mine, theirs)

    @pytest.mark.parametrize("size", EDGE_LENGTHS[1:])
    def test_signed_zeros_sum_like_numpy(self, size):
        for zero in (0.0, -0.0):
            values = [zero] * size
            assert same_bits(pairwise_sum(values), np.sum(values))

    def test_empty_sum_is_positive_zero(self):
        assert same_bits(pairwise_sum([]), np.sum(np.array([])))


class TestInputChecks:
    @pytest.mark.parametrize("q", (-0.5, 100.5, math.nan, math.inf))
    def test_percentile_outside_0_to_100_raises(self, q):
        with pytest.raises(ValueError):
            np.percentile([1.0, 2.0], q)
        with pytest.raises(ValueError, match="must be in \\[0, 100\\]"):
            percentile([1.0, 2.0], q)
        with pytest.raises(ValueError, match="must be in \\[0, 100\\]"):
            percentiles([1.0, 2.0], (50.0, q))

    def test_nan_latency_raises_and_names_it(self):
        # numpy would return NaN; a sort would pick an arbitrary order
        # statistic instead.
        assert math.isnan(np.percentile([3.0, math.nan, 1.0], 50.0))
        with pytest.raises(ValueError, match="NaN"):
            percentile([3.0, math.nan, 1.0], 50.0)

    def test_empty_samples_raise(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)
        with pytest.raises(ValueError, match="empty"):
            mean(array("d"))


#: Runs ``python -m repro <args>`` with numpy made unimportable.
_WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                  "from repro.__main__ import main; "
                  "sys.exit(main(sys.argv[1:]))")


class TestImportGuard:
    @pytest.mark.parametrize("command", (
        ["list"],
        ["run", "serve", "--scale", "0.1", "--no-cache"],
        ["run", "fig9", "--scale", "0.1", "--no-cache"],
    ), ids=" ".join)
    def test_cli_runs_without_numpy(self, command):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (SRC, env.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY,
                               *command], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]

    def test_geometric_mean_holds_the_only_numpy_import(self):
        found = []
        for folder, _, files in os.walk(os.path.join(SRC, "repro")):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), path)
                found.extend(_numpy_imports(tree, os.path.relpath(path, SRC)))
        assert found == [("repro/core/metrics.py", "geometric_mean")]


def _numpy_imports(tree: ast.AST, path: str):
    """(path, enclosing function or None) of each numpy import."""
    hits = []

    def visit(node: ast.AST, function) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        names = ([alias.name for alias in node.names]
                 if isinstance(node, ast.Import) else
                 [node.module or ""] if isinstance(node, ast.ImportFrom)
                 else [])
        if any(name.split(".")[0] == "numpy" for name in names):
            hits.append((path, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return hits
