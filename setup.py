"""Packaging for the ``repro`` library (src layout, pure Python).

numpy is a required runtime dependency: the engine's default execution
strategy is the vectorized array-kernel executor
(``repro/core/kernels.py``), and shard scatter RPCs travel as packed
binary frames built from numpy buffers (``repro/server/protocol.py``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Bounded pattern queries in big graphs — an ICDE 2015 "
                "reproduction with a query-serving engine",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
