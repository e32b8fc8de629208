"""The shipped configs and README's command line agree with the code.

Desk scale is the shipped ``*_desk.cfg`` files, so each must stay its
full-size config with only the desk keys changed. README's command-line
section must name only commands and options that the parser accepts, its
example config must build a plan, and the CI workflow must run ROADMAP's tier-1 command on the golden numpy,
then the benchmark self-test.
"""

import json
import re
import shlex
from argparse import _SubParsersAction
from pathlib import Path

import pytest

from rdsim.cli import build_parser
from rdsim.config import (
    engage_scenario_from_config,
    experiment_plan_from_config,
    load_config,
    parse_config,
)

ROOT = Path(__file__).resolve().parent.parent


def tenth(full: str) -> float:
    return round(int(full) / 10)


# study -> (builder, {(section, key): desk value as a function of the full-size text})
DESK_RULES = {
    "table2": (
        experiment_plan_from_config,
        {
            ("network", "mean_degree"): lambda full: 20,
            ("experiment", "replicates"): lambda full: min(int(full), 100),
        },
    ),
    "engage": (
        engage_scenario_from_config,
        {
            ("engage", "n"): tenth,
            ("engage", "sample_size"): tenth,
            ("engage", "replicates"): lambda full: 200,
        },
    ),
}


@pytest.mark.parametrize("study", sorted(DESK_RULES))
def test_desk_config_is_the_full_config_with_the_desk_keys_changed(study):
    build, rules = DESK_RULES[study]
    full = load_config(ROOT / "configs" / f"{study}.cfg")
    desk_path = ROOT / "configs" / f"{study}_desk.cfg"
    desk = load_config(desk_path)
    assert list(desk) == list(full)
    for section, body in full.items():
        assert list(desk[section]) == list(body), section
    for (section, key), rule in rules.items():
        assert float(desk[section].pop(key)) == rule(full[section].pop(key)), key
    assert desk == full
    build(load_config(desk_path), source=str(desk_path))


def command_line_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"^## Command line\n(.*?)^## ", text, re.M | re.S).group(1)


def parser_options(parser) -> set[str]:
    options = {flag for action in parser._actions for flag in action.option_strings}
    for action in parser._actions:
        if isinstance(action, _SubParsersAction):
            for sub in action.choices.values():
                options |= parser_options(sub)
    return options


def test_readme_command_lines_parse():
    section = command_line_section()
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("rdsim ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


def test_readme_command_line_names_only_parser_options():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", command_line_section()))
    assert named
    assert named - parser_options(build_parser()) == set()


def test_readme_example_config_builds_a_plan():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Config format\n(.*?)^## ", text, re.M | re.S).group(1)
    block = re.search(r"^```ini\n(.*?)^```", section, re.M | re.S).group(1)
    plan = experiment_plan_from_config(parse_config(block, "README.md"), source="README.md")
    assert plan.homophily_ratios == (1.0, 5.0)
    assert (plan.mode, plan.seed_selection, plan.regenerate_network) == ("bernoulli", "uniform", True)


def test_ci_runs_the_roadmap_tier1_command_on_the_golden_numpy():
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())["jobs"]["tier1"]["steps"]
    runs = [step["run"] for step in steps if "run" in step]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text()).group(1)
    golden = json.loads((ROOT / "tests/golden_digests.json").read_text())["numpy"]
    assert f'"numpy=={golden}"' in runs[0].split()
    # the benchmark self-test follows the tier-1 step and ends the job
    assert runs[-2:] == [tier1, "python3 perfbench/selftest.py"]
