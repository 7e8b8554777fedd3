"""The README is the user contract: its flags, exit codes and shell
examples are checked against the CLI here.

:func:`readme_commands` is also how CI finds the examples it runs through
the installed ``hiddentree`` script, so they are extracted in one place.
"""

import argparse
import re
import shlex
from pathlib import Path

from hiddentree import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# Sections whose flags belong to other tools: pip, pytest and perfbench.
OTHER_TOOLS = ("Install", "Tests")

LONG_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def readme_commands(text):
    """The arguments of each ``hiddentree`` command in the ``sh`` blocks of
    the README ``text``, in order, with lines continued by ``\\`` joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv[:1] == ["hiddentree"]:
                commands.append(argv[1:])
    return commands


def sections(text):
    """The README's ``## `` sections, title to body."""
    parts = re.split(r"^## (.+)\n", text, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def subcommand_flags():
    """Each subcommand's long flags, ``--help`` aside."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {flag for action in sub._actions for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"}
        for name, sub in subparsers.choices.items()
    }


def test_every_cli_flag_is_in_the_readme():
    named = set(LONG_FLAG.findall(README.read_text()))
    missing = {
        command: sorted(flags - named)
        for command, flags in subcommand_flags().items() if flags - named
    }
    assert not missing


def test_every_flag_the_readme_names_is_a_cli_flag():
    known = set().union(*subcommand_flags().values(), {"--version"})
    for title, body in sections(README.read_text()).items():
        if title not in OTHER_TOOLS:
            assert set(LONG_FLAG.findall(body)) <= known, title


def test_exit_code_table_lists_the_cli_exit_codes():
    table = sections(README.read_text())["CLI"].split("### Exit codes\n", 1)[1]
    codes = [int(code) for code in re.findall(r"^\| (\d+) \|", table, flags=re.M)]
    exit_codes = {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert set(exit_codes) == {"EXIT_OK", "EXIT_USAGE", "EXIT_IO", "EXIT_ANALYSIS"}
    assert codes == sorted(exit_codes.values())


def test_shell_examples_run_as_printed(tmp_path, monkeypatch, capsys):
    commands = readme_commands(README.read_text())
    assert [argv[0] for argv in commands] == ["generate", "analyze", "sweep", "export-dot"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == cli.EXIT_OK, (argv, capsys.readouterr().err)
    written = [
        "net.csv", "net.csv.manifest.json", "net.tree.tsv",
        "net.report.txt", "net.report.json", "net.ccdf.tsv",
        "sweep_out/summary.tsv", "sweep_out/manifest.json", "net.dot",
    ]
    assert [name for name in written if not (tmp_path / name).is_file()] == []
