"""Packaging for the Poise (HPCA'19) reproduction.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) so ``pip install -e .``
works on environments whose setuptools predates native PEP 660 editable
installs (no ``wheel`` package available offline).
"""

from pathlib import Path

from setuptools import find_packages, setup

_version: dict = {}
exec((Path(__file__).resolve().parent / "src" / "repro" / "version.py").read_text(), _version)

setup(
    name="poise-repro",
    version=_version["__version__"],
    description=(
        "Reproduction of 'Poise: Balancing Thread-Level Parallelism and Memory "
        "System Performance in GPUs using Machine Learning' (HPCA 2019)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro=repro.cli.main:main"]},
)
