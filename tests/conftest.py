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


@pytest.fixture(autouse=True, scope="session")
def no_out_root():
    """Every test writes where its config says: a CELLTWIN_OUT_ROOT exported in the shell would make
    the CLI refuse the absolute out_dir the tests' configs use."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("CELLTWIN_OUT_ROOT", raising=False)
        yield
