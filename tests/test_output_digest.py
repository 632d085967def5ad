"""Byte-identity gate for the CLI's deterministic output.

Runs the CLI in-process on every corpus problem at L=8 and hashes the exit
codes and stdout (machine format), or the exit codes, stdout and stderr
(text format).  Any change to a digest changes what users see and must be
justified in CHANGES.md.
"""

import hashlib

from freequandle import cli
from freequandle import subquandle as sq

OUTPUT_DIGEST = "8dbba9c68ab456de11907b46be4da077a52e993ef176a37f3f869ea6dbc727a6"
TEXT_OUTPUT_DIGEST = "8e96756ec0c850c15bd6fbb8e589b81cf6c34d6147c5689c5d1003d64c56754a"
# `closure --format machine` of the README example {x^(y), y} at L=8
# (13,122 elements), as the exhaustive pair loop printed it
README_CLOSURE_DIGEST = "4f7724de6cbebbb3587a9268ac4856283ff194bdb5335a6805b448f86a97e68c"


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
