import os
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


@pytest.fixture
def child_env() -> dict[str, str]:
    """This process's environment for a child Python process, with the package's src directory
    and the tests directory first on PYTHONPATH, where pytest puts them on its own path."""
    path = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
