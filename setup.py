from setuptools import find_packages, setup

setup(
    name="repro-aggregate-equivalence",
    version="0.7.0",
    description=(
        "Deciding equivalence of aggregate queries (PODS'01): decision "
        "procedures, view rewriting, and a three-tier evaluation engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # PEP 561: the package ships inline type hints; py.typed marks them as
    # consumable by downstream type checkers.
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.11",
    # The package is dependency-free by design: the decision procedures, the
    # planned interpreter, and the compiled engine's pure-python loop kernels
    # run on the standard library alone.
    install_requires=[],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
)
