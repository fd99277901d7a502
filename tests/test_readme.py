"""The README's attack and config lists match the tables in the code."""

import json
import re
from pathlib import Path

from eprlink.adversaries import ATTACK_NAMES, Adversary, AttackKind
from eprlink.channels import EVE
from eprlink.harness import CONFIG_KEYS, ExperimentConfig, run_experiment
from eprlink.protocol import EstablishmentConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_attack_names_match_the_cli():
    paragraph = README.split("Attack names:", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([a-z0-9_]+)`", paragraph)) == ATTACK_NAMES


def test_readme_attack_library_names_every_kind():
    library = README.split("## Attack library", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| `([a-z_]+)`", library, flags=re.MULTILINE))
    assert listed == {kind.value for kind in AttackKind}


def test_readme_config_list_is_the_config_table():
    """One item per key, in table order, with its JSON path, type, default, choices and flag."""
    section = README.split("### Config files", 1)[1].split("\n#", 1)[0]
    items = re.split(r"\n- ", section.split("\n\n- ", 1)[1].split("\n\n", 1)[0])
    assert len(items) == len(CONFIG_KEYS)
    for item, key in zip(items, CONFIG_KEYS):
        item = " ".join(item.split())
        head = f"`{'.'.join(key.path)}` ({key.rule}, default `{json.dumps(key.default)}`)"
        assert item.startswith(head), (item, head)
        for word in (*(f"`{c}`" for c in key.choices), key.flag or ""):
            assert word in item, (item, word)


def test_readme_report_keys_are_the_json_keys_in_order():
    paragraph = README.split("JSON report keys, in order.", 1)[1].split("\n\n", 1)[0]
    run_part, game_part = paragraph.split("A game report:")
    game_part = game_part.split("One report", 1)[0]
    run = run_experiment(ExperimentConfig(trials=3, cfg=EstablishmentConfig(m_pairs=4, n_decoys=2)))
    game = run_experiment(ExperimentConfig(scenario="game", trials=3))
    assert re.findall(r"`([a-z0-9_]+)`", run_part) == list(run.to_json_dict())
    assert re.findall(r"`([a-z0-9_]+)`", game_part) == list(game.to_json_dict())


def test_readme_interceptor_paragraph_names_the_adversary_seam():
    """Each backticked lower-case name (an attribute or a hook signature) exists on a
    built adversary, and every public name the base class defines is named.

    The class, its constructor call and the edge's ``(sender, receiver)`` form are
    the paragraph's only other backticked spans.
    """
    paragraph = README.split("A custom interceptor subclasses", 1)[1].split("\n\n", 1)[0]
    named = re.findall(r"`([a-z_][a-z0-9_]*)(?:\([^`]*\))?`", paragraph)
    adversary = Adversary(EVE)
    assert [name for name in named if not hasattr(adversary, name)] == []
    public = {name for name in vars(Adversary) if not name.startswith("_")}
    assert public and public <= set(named)
