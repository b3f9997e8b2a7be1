"""Setup shim for environments without the `wheel` package.

The repository declares no package metadata (there is no
pyproject.toml): run it from the source tree with ``PYTHONPATH=src``.
This file only keeps the legacy ``setup.py`` entry point; it passes
``setup()`` no arguments.
"""

from setuptools import setup

setup()
