import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"


def test_every_mutant_text_is_in_its_file_once():
    """The mutation gate's texts still match the code: a refactor that
    moves a mutated line fails here, before the gate's long run."""
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    mutants.check_texts()
    assert "tests/test_mutants.py" not in mutants.test_files(mutants.ROOT)
