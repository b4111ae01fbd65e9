"""Setuptools shim for environments without the `wheel` package.

This file enables the legacy ``pip install -e . --no-use-pep517`` /
``python setup.py develop`` path on machines where PEP 517 editable installs
are unavailable offline, and records the optional dependency sets.

Install the dev extras to run the full check suite (property-based tests and
the coverage gate)::

    pip install -e .[dev]
"""

from setuptools import find_packages, setup

setup(
    name="repro-usta",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    extras_require={
        # What `make check` wants: hypothesis drives the property suites
        # (tests/test_properties*.py) and pytest-cov enables the coverage
        # gate (--cov=repro --cov-fail-under=80) that CI enforces.
        "dev": [
            "pytest",
            "pytest-benchmark",
            "pytest-cov",
            "hypothesis",
            "ruff",
        ],
    },
)
