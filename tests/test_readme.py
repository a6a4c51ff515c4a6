"""The README's library quickstart and command-line block run and print what
their comments promise."""

import json
import re
import shlex
from pathlib import Path

from substrand.cli import main

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


def test_command_line_block_runs(capsys, monkeypatch, tmp_path):
    section = README.read_text().split("\n## Command line\n", 1)[1]
    rules, commands = re.findall(r"^```(?:sh)?\n(.*?)^```$", section, re.M | re.S)[:2]
    files = dict(re.findall(r"^# (\S+\.sub)\n(.*?)(?=^# |\Z)", rules, re.M | re.S))
    assert sorted(files) == ["fib.sub", "pair.sub", "tri.sub", "two.sub"]
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    monkeypatch.chdir(tmp_path)  # strand export writes its files here
    promised = []
    for line in commands.splitlines():
        program, *argv = shlex.split(line, comments=True)
        assert program == "substrand"
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        if "# ->" in line:
            promised.append((line.split("# ->", 1)[1].strip(), json.loads(out)))
    (encoded, encode_payload), (decoded, decode_payload) = promised
    assert encoded == encode_payload["path"] == "a: a.e.a.e"
    assert decoded == f"value {decode_payload['value']}" == "value 4"
