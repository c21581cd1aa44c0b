"""Setuptools entry point.

No package metadata is declared yet (there is no ``setup.cfg`` or
``pyproject.toml``), so the code runs from a checkout with
``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
