"""The executable specification stays an oracle: it must not call the code
it judges.  ``tests/spec/`` may import from ``repro`` only the frames, the
configuration, the numbering space, the error models and the stream
registry — never the engine, the channel, a sender, its buffer, a
receiver, the HDLC window arithmetic or the transport — and each family's
part stays short enough to read in a sitting: LAMS-DLC's 784 lines (827
while its sender and channel took runs of frames, 811 before it wrote its
records, a line or two per record kind), the SR-HDLC / NBDT baselines'
350.
"""

from __future__ import annotations

import ast
from pathlib import Path

SPEC = Path(__file__).parent / "spec"
ALLOWED = {"repro.core.config", "repro.core.frames", "repro.core.seqspace",
           "repro.simulator.errormodel", "repro.simulator.rng", "repro.hdlc.config",
           "repro.hdlc.frames", "repro.nbdt.config", "repro.nbdt.frames"}
JUDGED = ("repro.simulator.engine", "repro.simulator.link", "repro.core.sender",
          "repro.core.receiver", "repro.core.sendbuf", "repro.transport",
          "repro.hdlc.sender", "repro.hdlc.receiver", "repro.hdlc.window",
          "repro.nbdt.sender", "repro.nbdt.receiver")
BASELINES = {"hdlc.py", "nbdt.py"}


def imported(path: Path) -> set[str]:
    """Every absolute module *path* imports, and each name taken from one."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def test_the_specification_imports_nothing_it_judges():
    files = sorted(SPEC.glob("*.py"))
    assert files
    for path in files:
        modules = {module for module in imported(path) if module.split(".")[0] == "repro"}
        judged = {module for module in modules if module.startswith(JUDGED)}
        assert not judged, f"{path.name} imports {sorted(judged)}"
        stray = {module for module in modules
                 if module not in ALLOWED and module.rsplit(".", 1)[0] not in ALLOWED}
        assert not stray, f"{path.name} imports {sorted(stray)} from repro"


def test_the_specification_reads_in_a_sitting():
    lines = {path.name: len(path.read_text().splitlines()) for path in SPEC.glob("*.py")}
    assert BASELINES <= set(lines)
    assert sum(n for name, n in lines.items() if name not in BASELINES) <= 784
    assert sum(lines[name] for name in BASELINES) <= 350
