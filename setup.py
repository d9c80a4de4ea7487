from setuptools import find_packages, setup

setup(
    name="lightning-creation-games",
    version="1.4.0",
    description=(
        "Reproduction of 'Lightning Creation Games' (ICDCS 2023): "
        "payment-channel-network creation games, joining-strategy "
        "optimisation, and a discrete-event payment simulator"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[
        "numpy",
    ],
    entry_points={
        "console_scripts": [
            "lightning-creation-games = repro.cli:main",
        ],
    },
)
