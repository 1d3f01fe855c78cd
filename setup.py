"""Setup script: all install metadata lives here.

The execution environment has setuptools but no ``wheel`` package and no
network access, so PEP-517 editable installs (which need ``bdist_wheel``)
fail.  This script lets ``pip install -e . --no-use-pep517`` (or plain
``pip install -e .`` on environments with wheel) work everywhere;
``pyproject.toml`` holds tool configuration only.

The version is read from the text of ``src/repro/__init__.py`` rather than
by importing the package, so running this script needs no NumPy.
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))


def read_version() -> str:
    """Return ``__version__`` as written in ``src/repro/__init__.py``."""
    with open(os.path.join(HERE, "src", "repro", "__init__.py")) as fh:
        match = re.search(r'^__version__ = "([^"]+)"$', fh.read(), re.M)
    if match is None:
        raise RuntimeError("no __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description=(
        "Intermittent inference with nonuniformly compressed multi-exit "
        "networks on energy-harvesting devices: a reproduction"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    # The training substrate (repro.data, repro.zoo, the paper benches)
    # also needs SciPy; simulation, fleet, campaign and gateway do not.
    extras_require={"train": ["scipy"]},
)
