"""Setuptools packaging for the ``repro`` library (the sources live in ``src/``).

Build and install with ``pip install .``; ``python -m repro`` is the CLI.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Simulator and bounds for space-bandwidth tradeoffs in "
        "(rho, sigma)-bounded packet routing on lines and trees"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "networkx"],
)
