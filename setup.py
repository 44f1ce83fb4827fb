"""Package metadata for ``repro``.

Install from a checkout, also fully offline::

    pip install -e . --no-build-isolation --no-use-pep517

The version is read from ``src/repro/__init__.py`` without importing the
package, so building needs nothing but setuptools.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Houdini: predictive modeling for optimizing transaction execution "
        "in parallel OLTP systems, as a deterministic simulation"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.analysis": ["baseline.json"]},
    python_requires=">=3.10",
    # repro.modelpart imports numpy at module load, and the package's
    # __init__ imports modelpart: numpy is required, not optional.
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
