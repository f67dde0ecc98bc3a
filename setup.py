"""Setuptools shim.

The repository declares no package metadata: the library, its tests and
its tools run from the source tree with ``PYTHONPATH=src`` (see
README.md), so nothing needs installing.
"""

from setuptools import setup

setup()
