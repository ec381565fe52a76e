"""The README's examples run and print what the README says they print."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import arrideals
from arrideals import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# Commands whose README comment describes them rather than showing output.
DESCRIBED_ONLY = {"braid", "resolution"}


def code_block(section: str, lang: str) -> str:
    body = README.split(f"## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def cli_examples():
    """(argv, documented output) for each example in the Command line block.

    The output is written either as comment lines right below the command or,
    failing that, as the command's own trailing comment, where a final
    parenthetical is a note and not output.
    """
    lines = code_block("Command line", "sh").splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("arrideals "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        below = []
        for nxt in lines[i + 1:]:
            if not nxt.startswith("# "):
                break
            below.append(nxt[2:])
        if below:
            doc = "\n".join(below)
        else:
            doc = line.partition("#")[2]
            doc = re.sub(r"(?<=\S)\s+\([^()]*\)\s*$", "", doc)
        out.append((argv, doc))
    return out


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_library_example_runs():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(code_block("Library", "python"), {})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "1/2" and lines[-1] == "[0, 0, 2, 8, 19]"


def test_public_api_is_the_library_example():
    tree = ast.parse(code_block("Library", "python"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "arrideals"
        for alias in node.names
    ]
    assert arrideals.__all__ == imported


def test_command_line_examples(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    checked = []
    for argv, doc in cli_examples():
        code, out = run_cli(argv)
        assert code == 0, argv
        if argv[0] in DESCRIBED_ONLY:
            continue
        assert out.split() == doc.split(), argv
        checked.append(argv[0])
    assert checked == ["lattice", "lct", "mi", "mi", "jumps", "member", "hilbert",
                       "verify-theorem"]
