"""The package surface: every exported name resolves, and the README's
library example runs as documented."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import legkoop

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["legkoop"] + sorted(
    f"legkoop.{info.name}" for info in pkgutil.iter_modules(legkoop.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], f"{README.name} (Library)", "exec"), namespace)
    # The shapes its comments give.
    assert namespace["traj"].values.shape == (2, 100)
    assert namespace["states"].shape == (2, 100)
