"""Byte-identity gate for the CLI's deterministic output.

Runs the CLI in-process on every corpus problem at L=8 and hashes the exit
codes and stdout.  Any change to OUTPUT_DIGEST changes what users see and
must be justified in CHANGES.md.
"""

import hashlib

from freequandle import cli
from freequandle import subquandle as sq

OUTPUT_DIGEST = "8dbba9c68ab456de11907b46be4da077a52e993ef176a37f3f869ea6dbc727a6"


def test_machine_output_digest(capsys, tmp_path, corpus):
    digest = hashlib.sha256()
    for k, alphabet, gens in corpus:
        path = str(tmp_path / f"p{k}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"alphabet: {' '.join(alphabet.names)}\n")
            fh.writelines(f"{g}\n" for g in gens)
        last = str(sq.closure(gens, 8).elements[-1])
        for argv in (["basis", path, "--method", "paper", "--check-stability"],
                     ["basis", path, "--method", "greedy"],
                     ["check-independence", path, "--method", "both"],
                     ["express", path, last]):
            if argv[0] != "check-independence":
                argv += ["--max-tail-len", "8"]
            code = cli.main(argv + ["--format", "machine"])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == OUTPUT_DIGEST
