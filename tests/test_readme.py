"""The README's library quickstart runs and prints what its comments promise."""

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_prints_what_its_comments_promise(capsys):
    block = re.search(r"^## Library quickstart\n\n```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    exec(compile(block.group(1), "README.md quickstart", "exec"), {})
    *report, witness, generators, value = capsys.readouterr().out.splitlines()
    classification = json.loads("\n".join(report))
    assert classification["primitive"] and classification["irreducible"]
    assert classification["pisot_type"] == "Yes"
    assert witness == "CoincidenceWitness(index=3, letter='a', prefix_x=Word('aab'), prefix_y=Word('baa'))"
    assert generators == "(23, 1097)"
    assert value == "7"
