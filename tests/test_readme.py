"""The README's attack lists match the attack table in the code."""

import re
from pathlib import Path

from eprlink.adversaries import ATTACK_NAMES, AttackKind

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_attack_names_match_the_cli():
    paragraph = README.split("Attack names:", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([a-z0-9_]+)`", paragraph)) == ATTACK_NAMES


def test_readme_attack_library_names_every_kind():
    library = README.split("## Attack library", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| `([a-z_]+)`", library, flags=re.MULTILINE))
    assert listed == {kind.value for kind in AttackKind}
