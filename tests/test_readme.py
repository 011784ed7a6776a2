"""The README's examples run as written."""

import argparse
import json
import re
from pathlib import Path

from robustpl import ExperimentConfig
from robustpl.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_python_examples_run_in_order():
    blocks = fenced("python")
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].solved


def test_example_config_builds(tmp_path):
    (block,) = fenced("json")
    path = tmp_path / "cfg.json"
    path.write_text(block)
    config = ExperimentConfig.from_json(path)
    assert config.n_trials == json.loads(block)["n_trials"]


def test_cli_synopsis_lists_exactly_the_parser_options():
    lines = [line for block in fenced("sh") for line in block.splitlines()
             if line.startswith("robustpl ")]
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert sorted(line.split()[1] for line in lines) == sorted(commands.choices)
    for line in lines:
        parser = commands.choices[line.split()[1]]
        defined = {opt for action in parser._actions for opt in action.option_strings}
        assert set(re.findall(r"--[\w-]+", line)) == defined - {"-h", "--help"}, line
