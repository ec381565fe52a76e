"""The README's examples run and print what the README says they print."""

import ast
import contextlib
import importlib
import io
import re
import shlex
from collections import Counter
from pathlib import Path

import arrideals
from arrideals import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

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


def _references(*nodes) -> tuple[Counter, Counter]:
    """The names read under ``nodes``, and the attribute names read there."""
    names, attrs = Counter(), Counter()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attrs[sub.attr] += 1
    return names, attrs


def _public_definitions(stem: str, tree: ast.Module):
    """(label, is_member, name, node) for every public module-level function
    or class of module ``stem`` and every public method, property or field
    of its classes; a method that overrides a base class's is left out."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{stem}.{node.name}", False, node.name, node
        if not isinstance(node, ast.ClassDef):
            continue
        cls = getattr(importlib.import_module(f"arrideals.{stem}"), node.name)
        for member in node.body:
            if isinstance(member, ast.FunctionDef):
                name = member.name
                if any(name in vars(base) for base in cls.__mro__[1:]):
                    continue
            elif isinstance(member, ast.AnnAssign):
                name = member.target.id
            else:
                continue
            if not name.startswith("_"):
                yield f"{stem}.{node.name}.{name}", True, name, member


def test_every_public_name_has_a_production_reader():
    """Every public function, class, method, property and field of the
    package is read somewhere besides its own definition: by other package
    code or by the README's library example.  Names count when read as
    names or attributes, members only as attributes; tests do not count."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "arrideals").glob("*.py"))}
    names, attrs = _references(*trees.values(), ast.parse(code_block("Library", "python")))
    unread = []
    for stem, tree in trees.items():
        for label, is_member, name, node in _public_definitions(stem, tree):
            inside_names, inside_attrs = _references(node)
            outside = attrs[name] - inside_attrs[name]
            if not is_member:
                outside += names[name] - inside_names[name]
            if not outside:
                unread.append(label)
    assert unread == []


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
