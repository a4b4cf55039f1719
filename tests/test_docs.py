"""The documents describe the tree as it is."""

import importlib
import pkgutil
import re
import tokenize
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


def test_readme_schemas_are_the_csv_headers():
    """README's two Schema: lines, bench's then simulate's, are the
    headers those commands print."""
    from revquic.cli import BENCH_COLUMNS, SIMULATE_COLUMNS

    schemas = re.findall(r"^Schema: `(.*)`$", (ROOT / "README.md").read_text(), re.M)
    assert schemas == [",".join(BENCH_COLUMNS), ",".join(SIMULATE_COLUMNS)]


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


_STATEMENT_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def _prose(path: Path) -> str:
    """The comments and docstrings of a Python file: every comment, and
    every string that stands as a statement of its own."""
    parts, prev = [], tokenize.ENCODING
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.COMMENT or tok.type == tokenize.STRING and prev in _STATEMENT_START:
                parts.append(tok.string)
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                prev = tok.type
    return "\n".join(parts)


def test_dotted_program_names_resolve():
    """Every dotted name that starts from a program name
    (`Connection.recv`, `wire.ack_fields`) still names something: those
    backticked in README.md and docs/wire-format.md, and any in the
    comments and docstrings of src/revquic/ and demos/. A module's own
    file (`wire.py`) counts."""
    found = [
        (doc, dotted)
        for doc in ("README.md", "docs/wire-format.md")
        for dotted in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", (ROOT / doc).read_text())
    ]
    for path in sorted([*(ROOT / "src" / "revquic").glob("*.py"), *(ROOT / "demos").glob("*.py")]):
        for dotted in re.findall(r"(?<![\w.])([A-Za-z_]\w*(?:\.\w+)+)", _prose(path)):
            found.append((str(path.relative_to(ROOT)), dotted))
    names = _program_names()
    checked, stale = 0, []
    for where, dotted in found:
        head, *attrs = dotted.split(".")
        if head not in names:
            continue
        checked += 1
        if attrs == ["py"] and (ROOT / "src" / "revquic" / dotted).is_file():
            continue
        obj = names[head]
        for attr in attrs:
            if not hasattr(obj, attr):
                stale.append(f"{where}: {dotted}")
                break
            obj = getattr(obj, attr)
    assert checked and stale == []
