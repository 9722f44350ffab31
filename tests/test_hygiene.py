"""Source hygiene: no dead helpers in the package.

A private function or class (one leading underscore, not a dunder) has
no callers outside the package by convention, so when nothing inside
`src/parvault` names it, it is dead code. A public function, method or
class is dead when nothing in the package, the demos or the benchmark
names it: a helper that only tests call is not part of what the program
does. The scan counts any name or attribute use, and any string equal to
the name (for `getattr` lookups and the benchmark's traced-name tables),
outside the definition itself. Import lists such as the `statsuite`
re-exports are not uses.

No module reads or writes the process environment either: a switch that
only an environment variable sets is an option no caller or test sees,
and seeds and arguments already carry every setting.

Every command-line flag is read: a flag whose value neither its
subcommand's function nor a helper handed the parsed arguments reads is
accepted and then ignored. The README's flag table lists for each
subcommand the flags its parser defines, no more and no fewer.
"""

import argparse
import ast
import itertools
import re
from pathlib import Path

import parvault
from parvault import cli

PACKAGE = Path(parvault.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]

# public names kept without a caller in the program, each with its reason
PUBLIC_ALLOWLIST = {
    "storage_overhead": "the paper's storage-overhead formula that the "
                        "acceptance test holds serialized state to",
    "count_user_parameters": "counts user state for the storage-overhead "
                             "acceptance test",
    "count_server_parameters": "counts server state for the "
                               "storage-overhead acceptance test",
    "Simulation.serialize_user_state": "audit surface of the "
                                       "storage-overhead acceptance test",
    "Simulation.serialize_server_file_state": "audit surface of the "
                                              "storage-overhead acceptance "
                                              "test",
    "Simulation.serialized_server_state": "audit surface of the "
                                          "server-ephemerality tests",
    "save_pgm": "the writer that pairs with load_pgm",
}


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv",
                "unsetenv"}


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    # (qualified name, node) for every function and class, nested included
    stack = [("", node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node
            prefix += node.name + "."
        stack.extend((prefix, child) for child in ast.iter_child_nodes(node))


def _named(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _scan(files, wanted, use_files=()):
    """{qualified name: "file:line"} of each definition in `files` whose
    name `wanted` selects and that no node of `files` or `use_files` names
    outside the definition's own lines."""
    defined, uses = [], {}
    for path in [*files, *use_files]:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path in files:
            defined += [(qual, node, path) for qual, node in _definitions(tree)
                        if wanted(node.name)]
        for node in ast.walk(tree):
            name = _named(node)
            if name is not None:
                uses.setdefault(name, []).append((path, node.lineno))
    return {qual: f"{path.name}:{node.lineno}"
            for qual, node, path in defined
            if not any(where != path
                       or not node.lineno <= line <= node.end_lineno
                       for where, line in uses.get(node.name, ()))}


def _environment_uses(path):
    """Line numbers in `path` that touch the process environment through
    the os module."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and \
                any(alias.name in _ENVIRONMENT for alias in node.names):
            lines.append(node.lineno)
    return lines


def test_no_module_uses_the_environment():
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.rglob("*.py"))
             for line in _environment_uses(path)]
    assert not found, f"environment access in the package: {found}"


def test_environment_scan_flags_attribute_and_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nfrom os import getenv, path\n"
                   "seed = os.environ.get('SEED')\nhome = os.path.sep\n")
    assert _environment_uses(mod) == [2, 3]


def test_every_private_helper_is_referenced():
    dead = _scan(sorted(PACKAGE.rglob("*.py")), _private)
    assert not dead, f"unreferenced private helpers: {dead}"


def test_every_public_name_has_a_caller_outside_the_tests():
    program = [*sorted((REPO / "demos").glob("*.py")),
               *sorted((REPO / "perfbench").glob("*.py"))]
    dead = _scan(sorted(PACKAGE.rglob("*.py")), _public, program)
    dead = {q: w for q, w in dead.items() if q not in PUBLIC_ALLOWLIST}
    assert not dead, f"public names only tests call: {dead}"


def test_allowlisted_names_exist():
    defined = {qual for path in PACKAGE.rglob("*.py")
               for qual, _ in _definitions(ast.parse(path.read_text()))}
    assert set(PUBLIC_ALLOWLIST) <= defined


def test_scan_flags_an_unreferenced_helper(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def _used():\n    return 1\n\n"
                   "def _dead():\n    return _used()\n\n"
                   "class _Orphan:\n    def __init__(self):\n        pass\n")
    assert set(_scan([mod], _private)) == {"_dead", "_Orphan"}


def test_public_scan_ignores_self_reference_and_import_lists(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def loop(n):\n    return loop(n - 1) if n else 0\n\n"
                   "class Box:\n    def size(self):\n        return 1\n\n"
                   "def called():\n    return Box()\n")
    user = tmp_path / "user.py"
    user.write_text("from mod import loop, size\n\ncalled()\n")
    assert set(_scan([mod], _public, [user])) == {"loop", "Box.size"}


def _args_reads(tree, fn_name):
    """Attribute names that the module function `fn_name` in `tree`, and
    every module function it passes its first parameter to, read off that
    parameter; `getattr(args, "name")` counts as a read."""
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    reads, seen, todo = set(), set(), [(fn_name, 0)]
    while todo:
        name, position = todo.pop()
        if (name, position) in seen or name not in functions:
            continue
        seen.add((name, position))
        param = functions[name].args.args[position].arg
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == param:
                reads.add(node.attr)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name):
                names = [a.id if isinstance(a, ast.Name) else None
                         for a in node.args]
                if node.func.id == "getattr" and names[:1] == [param] and \
                        len(node.args) > 1:
                    reads.add(_named(node.args[1]))
                todo += [(node.func.id, i) for i, a in enumerate(names)
                         if a == param]
    return reads


def _unread_flags(parser, tree):
    """"prog --flag" for each option of each (sub)parser whose dest the
    parser's `fn` default, looked up by name in `tree`, never reads."""
    unread, stack = [], [parser]
    while stack:
        sub = stack.pop()
        fn = sub.get_default("fn")
        reads = _args_reads(tree, fn.__name__) if fn else set()
        for action in sub._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
            elif fn and action.option_strings and \
                    not isinstance(action, argparse._HelpAction) and \
                    action.dest not in reads:
                unread.append(f"{sub.prog} {action.option_strings[-1]}")
    return sorted(unread)


def test_every_cli_flag_is_read():
    tree = ast.parse(Path(cli.__file__).read_text())
    unread = _unread_flags(cli.build_parser(), tree)
    assert not unread, f"flags that nothing reads: {unread}"


def test_flag_scan_follows_helpers_and_getattr():
    source = (
        "def _cmd(args):\n    _out(args.seed, args)\n\n"
        "def _out(seed, opts):\n    return getattr(opts, 'out')\n\n"
        "def _lost(args):\n    return args.alpha\n")
    namespace = {}
    exec(source, namespace)
    parser = argparse.ArgumentParser(prog="tool")
    sub = parser.add_subparsers().add_parser("run")
    for flag in ("--seed", "--out", "--alpha", "--config"):
        sub.add_argument(flag)
    sub.set_defaults(fn=namespace["_cmd"])
    assert _unread_flags(parser, ast.parse(source)) == \
        ["tool run --alpha", "tool run --config"]


def _readme_flag_table():
    """{subcommand words: flags} from the README's `| subcommand | flags |`
    table; upper-case words such as FILE name positionals."""
    lines = (REPO / "README.md").read_text().splitlines()
    rows = lines[lines.index("| subcommand | flags |") + 2:]
    table = {}
    for row in itertools.takewhile(lambda ln: ln.startswith("|"), rows):
        usage, flags = row.strip("|").split("|")
        words = usage.strip(" `").split()
        table[" ".join(w for w in words if w.islower())] = \
            set(re.findall(r"`(--[a-z-]+)`", flags))
    return table


def _parser_flags(parser):
    """The same map from the parser, for each subcommand that runs."""
    table, stack = {}, [parser]
    while stack:
        sub = stack.pop()
        for action in sub._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
        if sub.get_default("fn"):
            table[sub.prog.partition(" ")[2]] = {
                opt for action in sub._actions
                if not isinstance(action, argparse._HelpAction)
                for opt in action.option_strings}
    return table


def test_readme_flag_table_matches_the_parser():
    assert _readme_flag_table() == _parser_flags(cli.build_parser())
