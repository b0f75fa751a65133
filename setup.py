"""Packaging metadata for the repro library.

A plain ``setup.py`` (rather than ``pyproject.toml``) so that
``pip install -e .`` works in offline environments whose setuptools predates
PEP 660 editable wheels (no ``wheel`` package available).  The long
description is the top-level README so the package page mirrors the repo
front page.
"""

import os
import re

from setuptools import find_packages, setup

_HERE = os.path.abspath(os.path.dirname(__file__))


def _read_readme() -> str:
    path = os.path.join(_HERE, "README.md")
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_version() -> str:
    path = os.path.join(_HERE, "src", "repro", "__init__.py")
    with open(path, "r", encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE)
    if match is None:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro",
    version=_read_version(),
    description=(
        "Reproduction of 'Stochastic Neuromorphic Circuits for Solving "
        "MAXCUT' (IPDPS 2023): LIF circuits, classical baselines, a batched "
        "trial-parallel engine, and a cross-method solver arena"
    ),
    long_description=_read_readme(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.9",
    install_requires=["numpy>=2.0", "scipy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
    ],
)
