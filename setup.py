"""Package metadata and entry points.

Kept as a plain ``setup.py`` (rather than ``pyproject.toml``) so the package
installs in editable mode (``pip install -e .``) on environments without the
``wheel`` package (offline build environments), via the legacy
``setup.py develop`` code path.
"""

from setuptools import find_packages, setup

setup(
    name="repro-rlz",
    version="0.2.0",
    description=(
        "Reproduction of 'Relative Lempel-Ziv Factorization for Efficient "
        "Storage and Retrieval of Web Collections' (PVLDB 2011)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The native decode kernel's source, compiled on first use
    # (see repro.core.native).
    package_data={"repro.core": ["rlz_decode.c"]},
    python_requires=">=3.9",
    install_requires=[
        "numpy>=1.22",
    ],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
            "repro-corpus=repro.cli:corpus_main",
            "repro-compress=repro.cli:compress_main",
            "repro-bench=repro.cli:bench_main",
        ]
    },
)
