"""The documents describe the tree as it is."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_layout_names_every_module():
    """The README's layout block lists exactly the modules of
    src/revquic/ other than __init__.py."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```\nsrc/revquic/\n(.*?)\n\S", readme, re.S).group(1)
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    modules = sorted(p.name for p in (ROOT / "src" / "revquic").glob("*.py") if p.name != "__init__.py")
    assert sorted(listed) == modules
    assert len(listed) == len(set(listed))
