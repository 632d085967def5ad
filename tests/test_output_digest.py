"""Byte-identity gate for the CLI's deterministic output.

Runs the CLI in-process on every corpus problem at L=8 and hashes the exit
codes and stdout (machine format), or the exit codes, stdout and stderr
(text format).  Any change to a digest changes what users see and must be
justified in CHANGES.md.
"""

import hashlib
import shlex
from pathlib import Path

from freequandle import cli
from freequandle import subquandle as sq

OUTPUT_DIGEST = "8dbba9c68ab456de11907b46be4da077a52e993ef176a37f3f869ea6dbc727a6"
TEXT_OUTPUT_DIGEST = "8e96756ec0c850c15bd6fbb8e589b81cf6c34d6147c5689c5d1003d64c56754a"
# `closure --format machine` of the README example {x^(y), y} at L=8
# (13,122 elements), as the exhaustive pair loop printed it
README_CLOSURE_DIGEST = "4f7724de6cbebbb3587a9268ac4856283ff194bdb5335a6805b448f86a97e68c"
# exit code, stdout and stderr of each command in README's CLI example
README_CLI_DIGEST = "470d75c7168b26bce4e2fb8532d960df4851b8a8552dd11e81563c86a70cf795"
README = Path(__file__).resolve().parent.parent / "README.md"


def _corpus_commands(tmp_path, corpus):
    """Per corpus problem, its file and its commands, at L=8 but for
    check-independence, which takes no bound."""
    for k, alphabet, gens in corpus:
        path = str(tmp_path / f"p{k}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"alphabet: {' '.join(alphabet.names)}\n")
            fh.writelines(f"{g}\n" for g in gens)
        last = str(sq.closure(gens, 8).elements[-1])
        yield path, [["basis", path, "--method", "paper", "--check-stability",
                      "--max-tail-len", "8"],
                     ["basis", path, "--method", "greedy", "--max-tail-len", "8"],
                     ["check-independence", path, "--method", "both"],
                     ["express", path, last, "--max-tail-len", "8"]]


def test_machine_output_digest(capsys, tmp_path, corpus):
    digest = hashlib.sha256()
    for _, commands in _corpus_commands(tmp_path, corpus):
        for argv in commands:
            code = cli.main(argv + ["--format", "machine"])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == OUTPUT_DIGEST


def test_text_output_digest(capsys, tmp_path, corpus):
    digest = hashlib.sha256()
    for path, commands in _corpus_commands(tmp_path, corpus):
        for argv in commands + [["closure", path, "--max-tail-len", "4"]]:
            code = cli.main(argv + ["--format", "text"])
            captured = capsys.readouterr()
            digest.update(f"{code}\n{captured.out}\0{captured.err}\0".encode())
    assert digest.hexdigest() == TEXT_OUTPUT_DIGEST


def test_readme_closure_digest(capsys, tmp_path):
    path = tmp_path / "problem.txt"
    path.write_text("alphabet: x y\nx^(y)\ny\n")
    code = cli.main(["closure", str(path), "--max-tail-len", "8", "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_CLOSURE_DIGEST


def _readme_cli_example():
    """The problem file and the argvs of the example under README's CLI
    heading: a ``cat > problem.txt <<EOF`` here-document, then one
    ``freequandle ...`` command per line."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    head, problem, rest = block.split("EOF\n")
    assert head == "cat > problem.txt <<"
    return problem, [shlex.split(ln)[1:] for ln in rest.splitlines()
                     if ln.startswith("freequandle ")]


def test_readme_cli_digest(capsys, monkeypatch, tmp_path):
    problem, commands = _readme_cli_example()
    (tmp_path / "problem.txt").write_text(problem, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for argv in commands:
        code = cli.main(argv)
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}\0{captured.err}\0".encode())
    assert len(commands) == 9
    assert digest.hexdigest() == README_CLI_DIGEST


def test_readme_library_example(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    assert capsys.readouterr().out == "['x', 'y'] True\n"
