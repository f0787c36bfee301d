"""The CLI's settings table and its handlers agree, --help shows every default, and
a config file's command section names only settings of its command.

``ssdiag/cli.py`` states each command's settings once, in ``_COMMANDS``, and
its handler reads them from the resolved dict as ``settings["key"]`` or
``_path(settings, "key")``.  A table key that neither the handler nor the
resolver reads, or a handler read that the table lacks, fails here.  The
resolver itself consumes ``config``, ``out``, ``seed`` and ``workers``.
"""

import ast
import json

import pytest

from ssdiag import cli

RESOLVER_KEYS = {"config", "out", "seed", "workers"}


def _handler_reads(name: str) -> set[str]:
    """Keys a handler of cli.py reads from its settings, found by parsing the file."""
    with open(cli.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    (handler,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    reads, uses = set(), 0
    for node in ast.walk(handler):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "settings":
            reads.add(ast.literal_eval(node.slice))
            uses += 1
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_path":
            reads.add(ast.literal_eval(node.args[1]))
            uses += 1
    # every other use of the name would be a read this count cannot see
    names = sum(isinstance(n, ast.Name) and n.id == "settings" for n in ast.walk(handler))
    assert names == uses, f"{name} reads its settings other than by a literal key"
    return reads


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_table_keys_are_the_keys_the_command_reads(command):
    handler, _, table = cli._COMMANDS[command]
    reads = _handler_reads(handler.__name__)
    assert set(table) == reads | (RESOLVER_KEYS & set(table))


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_help_names_every_default(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for key, (_, default, _) in cli._COMMANDS[command][2].items():
        if default is None:
            continue
        flag = "--" + key.replace("_", "-")
        # the flag's entry runs from its name to the next flag
        entry = text[text.index(f"{flag} {key.upper()} "):].split(" --")[0]
        assert f"(default {default})" in entry


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_unknown_key_in_a_command_section_exits_2(command, tmp_path, capsys):
    # a misspelt "perms" used to run at the default without a word
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({command: {"perm": 10}}))
    assert cli.main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: config section {command!r} has unknown settings ['perm']" in err


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_top_level_keys_are_shared_by_every_command(command, tmp_path):
    # no command reads every top-level key, and none refuses one it does not read
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "perm": 10, "beta": 0.5, "gammas": "0.5"}))
    settings = cli._resolve(cli._build_parser().parse_args([command, "--config", str(path)]))
    assert set(settings) == set(cli._COMMANDS[command][2])
