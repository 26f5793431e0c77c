"""The README's config example and CLI usage line agree with the code."""

import pathlib
import re

from rotordyn import cli

README = (pathlib.Path(__file__).resolve().parents[1]
          / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def test_ini_example_parses():
    (example,) = _blocks("ini")
    cfg = cli.parse_config(example)
    assert cfg.command in cli.COMMANDS


def test_usage_line_names_only_parser_options():
    usage = next(b for b in _blocks("") if b.startswith("rotordyn <command>"))
    flags = set(re.findall(r"--[a-z][a-z-]*", usage))
    options = {s for a in cli.build_parser()._actions
               for s in a.option_strings} - {"-h", "--help"}
    assert flags == options, flags ^ options
