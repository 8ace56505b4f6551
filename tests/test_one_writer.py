"""Every file the package writes goes through ``store.OutputSet``: no other
module opens a file for writing, renames, deletes or creates one."""

import ast
from pathlib import Path

import citysense

PACKAGE = Path(citysense.__file__).parent
# Path methods and ``os`` functions that change the file system.
WRITING_METHODS = {"write_text", "write_bytes", "unlink", "rename", "rmdir", "mkdir", "touch"}
WRITING_OS_FUNCTIONS = {"replace", "rename", "remove", "unlink", "rmdir", "mkdir", "makedirs"}


def _mode(call: ast.Call, position: int):
    """The mode argument of an ``open`` call: its text, None when absent,
    or ``"?"`` when it is not a string literal."""
    for kw in call.keywords:
        if kw.arg == "mode":
            node = kw.value
            break
    else:
        if len(call.args) <= position:
            return None
        node = call.args[position]
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else "?"


def file_writes(source: str) -> list[str]:
    """Line and text of each call in ``source`` that writes to the file system."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _mode(node, 1)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            # Path.open(mode); a name, as in OutputSet.open(name), is no mode
            mode = _mode(node, 0)
            if mode == "?" and not any(kw.arg == "mode" for kw in node.keywords):
                mode = None
        elif isinstance(func, ast.Attribute) and (
            func.attr in WRITING_METHODS
            or (isinstance(func.value, ast.Name) and func.value.id == "os"
                and func.attr in WRITING_OS_FUNCTIONS)
        ):
            mode = "w"
        else:
            continue
        if mode == "?" or (mode and set(mode) <= set("rwxabt+") and set(mode) & set("wxa+")):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_only_the_store_writes_files():
    writes = {
        path.name: file_writes(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "store.py"
    }
    assert {name: found for name, found in writes.items() if found} == {}


def test_the_guard_sees_the_writes_of_the_store():
    found = file_writes((PACKAGE / "store.py").read_text())
    assert any("open(_temporary(path), 'w', buffering=buffer, newline='\\n')" in line
               for line in found)
    assert any("os.replace(" in line for line in found)
    assert any(".unlink(" in line for line in found)
    assert any(".mkdir(" in line for line in found)


def test_the_guard_flags_each_kind_of_write():
    source = "\n".join([
        "open(p, 'w')", "open(p, mode='a')", "p.open('x')", "open(p, m)",
        "p.write_text(t)", "p.unlink()", "os.replace(a, b)", "os.remove(a)",
        "open(p)", "p.open()", "open(p, 'rb')", "s.replace('a', 'b')", "files.open(name)",
        "files.open('comparison.json')",
    ])
    assert [line.split(": ", 1)[1] for line in file_writes(source)] == [
        "open(p, 'w')", "open(p, mode='a')", "p.open('x')", "open(p, m)",
        "p.write_text(t)", "p.unlink()", "os.replace(a, b)", "os.remove(a)",
    ]
