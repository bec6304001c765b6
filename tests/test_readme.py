"""README's list of the output-digest suites, and the list in the module
docstring of `scripts/output_digest.py`, name the lines that the script
prints, in the order it prints them, and the count words say how many
there are."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NUMBERS = ("zero one two three four five six seven eight nine ten eleven twelve thirteen "
           "fourteen fifteen sixteen seventeen eighteen nineteen twenty").split()


def test_readme_digest_list_matches_the_script():
    script = (ROOT / "scripts" / "output_digest.py").read_text()
    suites = re.findall(r'report\("([\w-]+)"', script)
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("`scripts/output_digest.py` ("):
                     readme.index("## Conventions worth knowing")]
    assert re.findall(r"^- `([\w-]+)`:", section, re.M) == suites
    counts = re.findall(r"\b(\w+) lines\b", section) + re.findall(r"\ball (\w+) lines\b", script)
    assert len(counts) == 3
    assert set(counts) == {NUMBERS[len(suites)]}


def test_script_docstring_lists_its_suites_in_print_order():
    script = (ROOT / "scripts" / "output_digest.py").read_text()
    doc = ast.get_docstring(ast.parse(script))
    assert re.findall(r"^- ([\w-]+):", doc, re.M) == re.findall(r'report\("([\w-]+)"', script)
