"""`tests/mutate.py`'s table keeps in step with the code.

Running the mutants takes minutes; this only reads the table: every
mutant's old text occurs exactly once in its file, and every test file it
names exists, so a moved text fails here and not only in the mutation run.
"""

from mutate import MUTANTS, ROOT


def test_every_mutant_text_and_test_file_is_found():
    stale = []
    for mutant in MUTANTS:
        found = (ROOT / mutant.file).read_text().count(mutant.old)
        if found != 1:
            stale.append(f"{mutant.name}: old text found {found} times in {mutant.file}")
        stale += [f"{mutant.name}: no test file {path}" for path in mutant.tests
                  if not (ROOT / path).is_file()]
    assert stale == []
