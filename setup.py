"""Setuptools configuration.

Metadata stays here (rather than in ``pyproject.toml``'s ``[project]``
table) so that ``pip install -e .`` also works on environments whose
setuptools predates PEP 621/660 (legacy ``setup.py develop`` path, e.g.
offline machines without the ``wheel`` package); ``pyproject.toml`` carries
only the build-system pin and tool configuration.
"""

from setuptools import find_packages, setup

setup(
    name="repro-bundler",
    version="1.0.0",  # keep in sync with repro.__version__
    description=(
        "Reproduction of 'Site-to-site internet traffic control' (Bundler, "
        "EuroSys 2021): discrete-event simulator, experiments, and a "
        "parallel scenario-sweep runner"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            "repro-runner = repro.runner.cli:main",
        ],
    },
)
