"""Every module-level import in the package is used by its module, no
module reads the environment (every setting is a config key or an option),
every public function of the engine serves the package, not only tests,
every file the package writes goes through backbone.atomic_write,
nothing calls np.pad, whose per-call set-up costs more than the fill,
autodiff.pad2d is the one fill helper, only model.py and autodiff.py
start threads, every thread pool is opened by a with statement, which
joins its worker, and every task handed to a worker runs in its caller's
contextvars context, so np.errstate governs it. The engine shares arrays
between nodes and relies on nothing writing into an array a node has read;
predict_mask's one worker keeps that by sharing only detached parameters
and the features this thread hands it; a recording model_forward's worker
by reading only the first half of a batch's images, or of the fusion's
score maps, which nothing writes, and writing only the arrays it makes,
their values, variances and adjoints; backward's one worker by running
only leaf rules, which read the gradient they share and write only the
leaves, which no other rule reads, and the fusion's second half of map
rules, which read it and write nothing. A thread elsewhere would need the
same proof."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lesionseg"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("from a import b as c, d\nd()\n") == ["line 1: c"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"line {node.lineno}: from os import {alias.name}"
                      for alias in node.names if alias.name in ENVIRONMENT_READS]
    return found


def test_detects_an_environment_read():
    assert environment_reads("import os\nos.environ.get('N')\n") == ["line 2: os.environ"]
    assert environment_reads("import os\nn = os.getenv('N')\n") == ["line 2: os.getenv"]
    assert environment_reads("from os import getenv\n") == ["line 1: from os import getenv"]
    assert environment_reads("import os\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text()) == []


def unreferenced_functions(source: str, others: list[str]) -> list[str]:
    """Public top-level functions of `source` that no module in `others` names."""
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for other in others for node in ast.walk(ast.parse(other))
             if isinstance(node, (ast.Name, ast.Attribute))}
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in named]


def test_detects_an_unreferenced_function():
    source = "def f(): pass\ndef g(): pass\ndef _h(): pass\n"
    assert unreferenced_functions(source, ["f()\n"]) == ["g"]
    assert unreferenced_functions(source, ["import m\nm.g(f)\n"]) == []


def test_every_engine_function_is_used_by_the_package():
    # gradcheck's cases reach every op by design, so they do not count; the
    # one exception is windowed_variance, local_variance as an op, through
    # which gradcheck checks the adjoint that the fusion runs
    others = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
              if path.name not in ("autodiff.py", "gradcheck.py")]
    assert unreferenced_functions((PACKAGE / "autodiff.py").read_text(), others) == \
        ["windowed_variance"]


def _called(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def file_writes(source: str) -> list[str]:
    """Calls outside a function named atomic_write that write a file: open
    with a w, a, x or + mode, .write_text, .write_bytes, and a .save whose
    first argument is not a name bound to an io.BytesIO."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "atomic_write"
              for node in ast.walk(fn)}
    buffers = {target.id for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
               and _called(node.value) == "BytesIO"
               for target in node.targets if isinstance(target, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        name = _called(node)
        if name == "open":
            # builtin open(file, mode); Path.open(mode)
            at = 1 if isinstance(node.func, ast.Name) else 0
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[at:at + 1]
            if any(isinstance(m, ast.Constant) and isinstance(m.value, str)
                   and set(m.value) & set("wax+") for m in modes):
                found.append(f"line {node.lineno}: open for writing")
        elif name in ("write_text", "write_bytes"):
            found.append(f"line {node.lineno}: .{name}")
        elif name == "save" and not (node.args and isinstance(node.args[0], ast.Name)
                                     and node.args[0].id in buffers):
            found.append(f"line {node.lineno}: .save")
    return found


def test_detects_a_file_write():
    assert file_writes("with open(p, 'w', newline='') as fh:\n    pass\n") == \
        ["line 1: open for writing"]
    assert file_writes("open(p, mode='ab')\np.open('r+')\n") == \
        ["line 1: open for writing", "line 2: open for writing"]
    assert file_writes("p.write_text(t)\np.write_bytes(b)\n") == \
        ["line 1: .write_text", "line 2: .write_bytes"]
    assert file_writes("image.save(path)\n") == ["line 1: .save"]
    assert file_writes("fh = io.BytesIO()\nimage.save(fh, format='PNG')\n") == []
    assert file_writes("open(p, 'rb')\nopen(p)\nImage.open(p)\np.read_bytes()\n") == []
    assert file_writes("def atomic_write(path, data):\n    path.write_bytes(data)\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_files_are_written_only_by_atomic_write(path):
    assert file_writes(path.read_text()) == []


def test_atomic_write_is_defined_once():
    defined = [path.name for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "atomic_write"]
    assert defined == ["backbone.py"]


def np_pad_calls(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "pad"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append(f"line {node.lineno}: {node.value.id}.pad")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"line {node.lineno}: from numpy import pad"
                      for alias in node.names if alias.name == "pad"]
    return found


def test_detects_np_pad():
    assert np_pad_calls("import numpy as np\nnp.pad(x, 1)\n") == ["line 2: np.pad"]
    assert np_pad_calls("y = numpy.pad(x, 1, mode='edge')\n") == ["line 1: numpy.pad"]
    assert np_pad_calls("from numpy import pad\n") == ["line 1: from numpy import pad"]
    assert np_pad_calls("pad2d(x, (1, 1), (0, 0), edge=True)\nnp.zeros(3)\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_np_pad(path):
    assert np_pad_calls(path.read_text()) == []


def test_pad2d_is_the_only_fill_helper():
    defined = [(path.name, node.name) for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and "pad" in node.name]
    assert defined == [("autodiff.py", "pad2d")]


CONCURRENCY = {"threading", "_thread", "concurrent", "multiprocessing"}


def concurrency_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] in CONCURRENCY]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] in CONCURRENCY):
            found.append(f"line {node.lineno}: from {node.module} import")
    return found


def test_detects_a_concurrency_import():
    assert concurrency_imports("import threading\n") == ["line 1: import threading"]
    assert concurrency_imports("import os, multiprocessing.pool as mp\n") == \
        ["line 1: import multiprocessing.pool"]
    assert concurrency_imports("def f():\n    from concurrent.futures import Executor\n") \
        == ["line 2: from concurrent.futures import"]
    assert concurrency_imports("from concurrent import futures\n") == \
        ["line 1: from concurrent import"]
    assert concurrency_imports("import os\nfrom .model import threads\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_model_starts_threads(path):
    threaded = path.name in ("model.py", "autodiff.py")
    assert bool(concurrency_imports(path.read_text())) == threaded


def _is_context_run(node: ast.expr) -> bool:
    """node is copy_context().run."""
    return (isinstance(node, ast.Attribute) and node.attr == "run"
            and isinstance(node.value, ast.Call) and _called(node.value) == "copy_context"
            and not node.value.args)


def submits_outside_the_context(source: str) -> list[str]:
    """.submit calls whose first argument is not copy_context().run."""
    return [f"line {node.lineno}: .submit" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and not (node.args and _is_context_run(node.args[0]))]


def test_detects_a_submit_outside_the_context():
    assert submits_outside_the_context("pending = worker.submit(mask, features)\n") == \
        ["line 1: .submit"]
    assert submits_outside_the_context("ctx = copy_context()\nw.submit(ctx.run, f)\n") == \
        ["line 2: .submit"]
    assert submits_outside_the_context("w.submit(fn=f)\nw.submit(copy_context.run, f)\n") \
        == ["line 1: .submit", "line 2: .submit"]
    assert submits_outside_the_context(
        "w.submit(copy_context().run, f, x)\nsubmit(task)\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_worker_tasks_run_in_the_callers_context(path):
    assert submits_outside_the_context(path.read_text()) == []


def executors_outside_a_with(source: str) -> list[str]:
    """ThreadPoolExecutor calls that are not themselves a with item, whose
    exit would join the worker."""
    tree = ast.parse(source)
    items = {id(item.context_expr) for node in ast.walk(tree) if isinstance(node, ast.With)
             for item in node.items}
    return [f"line {node.lineno}: ThreadPoolExecutor" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called(node) == "ThreadPoolExecutor"
            and id(node) not in items]


def test_detects_an_executor_outside_a_with():
    assert executors_outside_a_with("worker = ThreadPoolExecutor(1)\n") == \
        ["line 1: ThreadPoolExecutor"]
    assert executors_outside_a_with(
        "with ThreadPoolExecutor(1) as w:\n    extra = futures.ThreadPoolExecutor(2)\n") \
        == ["line 2: ThreadPoolExecutor"]
    assert executors_outside_a_with("with closing(ThreadPoolExecutor(1)):\n    pass\n") == \
        ["line 1: ThreadPoolExecutor"]
    assert executors_outside_a_with(
        "with open(f) as a, futures.ThreadPoolExecutor(1) as w:\n    pass\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_worker_is_joined(path):
    assert executors_outside_a_with(path.read_text()) == []
