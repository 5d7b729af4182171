"""Fixtures shared by the test modules."""

import pytest

from lgha import cli


@pytest.fixture(scope="session")
def full_report():
    """One `--suite all` run at the default config and seed, formed once:
    the acceptance criteria read it, and so do the kill table's honest
    runs at the default config."""
    return cli.run_suite("all", cli.SuiteConfig())
