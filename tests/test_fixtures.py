"""The golden tables as the library reads them, against the package-data
reader it replaced, and from a zipped copy of the package."""

import json
import subprocess
import sys
import zipfile
from importlib import resources
from pathlib import Path

import pytest

from interarr import fixtures

PACKAGE = Path(fixtures.__file__).resolve().parent
NAMES = ["chow_table.json", "gamma_table.json"]


def _load_by_resources(name: str) -> dict:
    """The former fixtures._load."""
    with resources.files("interarr.data").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", NAMES)
def test_load_matches_the_resources_reader(name):
    assert fixtures._load(name) == _load_by_resources(name)


def test_tables_load_from_a_zipped_package(tmp_path):
    archive = tmp_path / "interarr.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(PACKAGE.rglob("*")):
            if path.suffix in (".py", ".json"):
                zf.write(path, Path("interarr") / path.relative_to(PACKAGE))
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", """
import sys
sys.path.insert(0, sys.argv[1])
from interarr import fixtures
assert type(fixtures.__loader__).__name__ == "zipimporter", fixtures.__loader__
import json
print(json.dumps([fixtures._load(name) for name in sys.argv[2:]]))
""", str(archive), *NAMES], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [_load_by_resources(name) for name in NAMES]
