"""The package imports nothing outside the standard library."""

import ast
from pathlib import Path

import rackqm

# a new module here is a reviewed edit: setup_s in the benchmark pays for
# every import that `import rackqm` makes
STANDARD_LIBRARY = {
    "__future__",
    "argparse",
    "dataclasses",
    "fractions",
    "itertools",
    "json",
    "math",
    "pathlib",
    "random",
    "re",
    "sys",
    "typing",
}


def test_the_package_imports_only_the_standard_library():
    # every import statement, function-level ones too; relative imports stay
    # inside the package
    imported = set()
    for path in sorted(Path(rackqm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    assert imported <= STANDARD_LIBRARY, sorted(imported - STANDARD_LIBRARY)
