"""Shared pytest options for the tier-1 suite."""


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite GOLDEN_experiments.json from the current code "
             "instead of comparing against it (tests/test_golden.py)",
    )
