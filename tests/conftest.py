import pytest
from hypothesis import settings

from cbtopo import CbtConfig, build_colorless_task, build_task

# Every property test runs the same fixed examples on every run, so a
# failure reproduces, and no example is cut short by a deadline.
settings.register_profile("cbtopo", deadline=None, derandomize=True)
settings.load_profile("cbtopo")


@pytest.fixture(scope="session")
def cbt_tasks():
    """Colored task instances for the three smallest sizes."""
    return {n: build_task(CbtConfig(n=n)) for n in (1, 2, 3)}


@pytest.fixture(scope="session")
def colorless_tasks():
    """Colorless projections for the three smallest sizes."""
    return {n: build_colorless_task(CbtConfig(n=n)) for n in (1, 2, 3)}
