"""The README's examples run as written."""

import json
import re
from pathlib import Path

from robustpl import ExperimentConfig

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
