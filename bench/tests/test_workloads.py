"""A few real items of each workload, run on gintools and checked.

With a gintools whose gin or Hilbert function is wrong these fail, so the
checks are seen to bite on the library itself and not only on hand-made
outputs.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

# the cheapest items of each workload, by label
CHEAP = {
    "corpus": lambda label: label in ("twisted-cubic", "points-3"),
    "heavy": lambda label: label[0] == ("ci", 2, 2, 4),
    "points": lambda label: label <= 8,
}


@pytest.fixture(scope="module")
def lib():
    names = ("cli", "corpus", "gin", "groebner", "ring")
    return SimpleNamespace(**{n: importlib.import_module(f"gintools.{n}")
                              for n in names})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cheap_items_pass_the_checks(lib, name):
    workload = WORKLOADS[name]
    state = workload.setup(lib, 1)
    check = workload.checker(state)
    ran = 0
    for label, run in workload.items(state, 1, 0):
        if CHEAP[name](label):
            assert check(label, run()) == []
            ran += 1
    assert ran >= 2
