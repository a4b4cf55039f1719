"""The documents describe the tree as it is."""

import importlib
import pkgutil
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


def _program_names() -> dict:
    """Every module of revquic and every name at the top of one: the
    heads a dotted name in the documents can start from."""
    import revquic

    modules = {
        info.name: importlib.import_module(f"revquic.{info.name}")
        for info in pkgutil.iter_modules(revquic.__path__)
    }
    names = dict(modules)
    for mod in modules.values():
        for key, value in vars(mod).items():
            names.setdefault(key, value)
    return names


def test_dotted_program_names_resolve():
    """Every backticked dotted name in README.md and docs/wire-format.md
    that starts from a program name (`Connection.recv`, `wire.ack_fields`)
    still names something; a module's own file (`wire.py`) counts."""
    names = _program_names()
    stale = []
    for doc in ("README.md", "docs/wire-format.md"):
        for dotted in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", (ROOT / doc).read_text()):
            head, *attrs = dotted.split(".")
            if head not in names:
                continue
            if attrs == ["py"] and (ROOT / "src" / "revquic" / dotted).is_file():
                continue
            obj = names[head]
            for attr in attrs:
                if not hasattr(obj, attr):
                    stale.append(f"{doc}: {dotted}")
                    break
                obj = getattr(obj, attr)
    assert stale == []
