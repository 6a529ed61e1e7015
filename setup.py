"""Setuptools shim.

Kept alongside pyproject.toml so that ``pip install -e .`` works in
offline environments whose pip/setuptools lack PEP 660 editable-wheel
support (no ``wheel`` package available).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "Reproduction of 'The Energy Complexity of BFS in Radio Networks' "
        "(Chang, Dani, Hayes, Pettie; PODC 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "networkx", "scipy"],
)
