"""Every definition under qcongest has a reader that runs.

A top-level function, class or constant, or a method, of a qcongest module
must be reachable by name from a root: the CLI's `main`, a name that the
benchmark (perfbench/) or the tools (tools/) read, or an entry of ALLOWED.
Reaching a definition reaches every name it reads, and reaching a class
reaches its dunder methods, which Python calls implicitly.  Tests are not
roots: code that only its own tests call is deleted with those tests, or
moved into them as a reference.

Names are matched by spelling, not resolved: a read of `union` anywhere
reaches every definition called `union`, so dead code that shares a live
name goes unflagged.  Strings that are identifiers count as reads in
perfbench/ and tools/, since the benchmark's tracer looks its functions up
by name.

README.md names only what the code holds: every backticked token of it
that looks like code names something that qcongest, perfbench/ or tools/
defines, reads or holds in a string, so a deleted name cannot linger in
the docs.  A token led by a dot (`.x`) must name an attribute: one that
the code reads or sets, a class field or a method.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qcongest"
OUTSIDE = [p for d in ("perfbench", "tools") for p in sorted((ROOT / d).rglob("*.py"))
           if "tests" not in p.relative_to(ROOT).parts]
ENTRY = ("cli", "main")

# definitions that no run reads, each kept for the reason given
ALLOWED = {
    ("graph", "oracle_cliques"): "brute-force oracle: the reference for K_p listing",
    ("graph", "oracle_has_extension"): "brute-force oracle: the reference for extension",
    ("graph", "oracle_has_cycle"): "brute-force oracle: the reference for cycle detection",
    ("qsearch", "grover_cost"): "the flat search formula that nested_cost_predict is "
                                "checked against",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def reads(nodes, strings=False):
    """Names that nodes read: loaded names, attribute names and, with
    strings, string constants that are identifiers."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                out.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                out.add(node.value)
    return out


def definitions(module, source):
    """{(module, qualified name): names it reads} for each definition, and
    the names that module-level code outside definitions reads."""
    defs, loose = {}, []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):  # its methods are definitions of their own
            body = [item for item in node.body if not isinstance(item, DEFS)]
            defs[(module, node.name)] = reads([*node.bases, *node.keywords,
                                               *node.decorator_list, *body])
            for item in node.body:
                if isinstance(item, DEFS):
                    defs[(module, f"{node.name}.{item.name}")] = reads([item])
        elif isinstance(node, DEFS):
            defs[(module, node.name)] = reads([node])
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defs[(module, target.id)] = reads([node.value] if node.value else [])
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            loose.append(node)
    return defs, reads(loose)


def unreachable(sources, entry, outside_reads, allowed):
    """The definitions of sources ({module: text}) that no root reaches."""
    defs, roots = {}, set(outside_reads)
    for module, text in sources.items():
        found, loose = definitions(module, text)
        defs.update(found)
        roots |= loose
    by_name = defaultdict(list)
    for key in defs:
        by_name[key[1].rsplit(".", 1)[-1]].append(key)
    todo = [entry, *allowed] + [key for name in roots for key in by_name[name]]
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen or key not in defs:
            continue
        seen.add(key)
        todo += [k for name in defs[key] for k in by_name[name]]
        todo += [k for k in defs if k[0] == key[0]
                 and k[1].startswith(key[1] + ".__") and k[1].endswith("__")]
    return sorted(set(defs) - seen)


def tree_sources():
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def outside_reads():
    return reads([ast.parse(p.read_text()) for p in OUTSIDE], strings=True)


def test_checker_flags_an_unread_definition():
    # an unread constant, an unread method of a reached class, and a
    # function that reads a root but that no root reads
    sources = {
        "a": ("from .b import helper\nLIMIT = 3\nUNUSED = 4\n"
              "def main():\n    return helper(LIMIT) + Box().size()\n"
              "def orphan():\n    return main()\n"
              "class Box:\n    def __init__(self):\n        self.n = 1\n"
              "    def size(self):\n        return self.n\n"
              "    def dead(self):\n        return 0\n"),
        "b": ("def helper(x):\n    return x\ndef traced():\n    return 1\n"
              "def kept():\n    return inner()\ndef inner():\n    return 2\n"),
    }
    assert unreachable(sources, ("a", "main"), {"traced"}, {("b", "kept")}) == [
        ("a", "Box.dead"), ("a", "UNUSED"), ("a", "orphan")]


def test_every_allowed_entry_is_otherwise_unread():
    assert set(ALLOWED) <= set(unreachable(tree_sources(), ENTRY, outside_reads(), {}))
    assert all(ALLOWED.values())


def test_every_definition_is_reachable():
    assert unreachable(tree_sources(), ENTRY, outside_reads(), ALLOWED) == []


# a dotted name, maybe led by a dot or followed by (); paths, flags and
# spans with spaces do not match
CODE_TOKEN = re.compile(r"\.?[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\(\))?")
FILE_SUFFIXES = {"cfg", "csv", "json", "md", "py", "toml", "txt", "yaml", "yml"}


def code_names(paths):
    """(every name that the modules at paths define, read or hold as an
    identifier string, and the names of the modules and their packages;
    the attribute names among them: attributes read or set, class fields
    and methods)."""
    names, attributes = set(), set()
    for path in paths:
        names |= {path.stem, path.parent.name}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, DEFS):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                names.add(node.value)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS):
                        attributes.add(item.name)
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        attributes.add(item.target.id)
                    elif isinstance(item, ast.Assign):
                        attributes |= {t.id for t in item.targets if isinstance(t, ast.Name)}
    return names | attributes, attributes


def readme_misses(text, names, attributes):
    """The backticked tokens of text that look like code (they hold `_` or
    `.`, or end in `()`) and name something outside names: each dotted
    part must be a name, and each part of a token led by a dot must be
    one of attributes.  A file name is not such a token."""
    misses = []
    for token in re.findall(r"`([^`\n]+)`", text):
        if not CODE_TOKEN.fullmatch(token) or not (
                "_" in token or "." in token or token.endswith("()")):
            continue
        parts = token.removesuffix("()").lstrip(".").split(".")
        known = attributes if token.startswith(".") else names
        if parts[-1] not in FILE_SUFFIXES and not set(parts) <= known:
            misses.append(token)
    return misses


def test_readme_checker_flags_an_unknown_name():
    text = ("`run_it()` and `mod.run_it` run; `.size` is read; `gone_name`, "
            "`mod.gone()`, `.gone_attr` and `.run_it` are gone.  Not code: `plain`, "
            "`pyproject.toml`, `tests/test_x.py`, `--some_flag`, `f(x) + y_z`, `a,b_c`.")
    assert readme_misses(text, {"run_it", "mod", "size"}, {"size"}) == [
        "gone_name", "mod.gone()", ".gone_attr", ".run_it"]


def test_readme_names_only_what_the_code_holds():
    names, attributes = code_names([*sorted(SRC.glob("*.py")), *OUTSIDE])
    assert readme_misses((ROOT / "README.md").read_text(), names, attributes) == []
