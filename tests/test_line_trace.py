"""scripts/line_trace.py on a one-line program."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "line_trace.py"


def test_lists_the_statements_a_program_never_ran(tmp_path):
    program = "import sys; from robustpl.quadform import _moments; _moments([1.0], [0.0]); sys.exit(3)"
    done = subprocess.run([sys.executable, str(SCRIPT), "-c", program], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr  # the traced program's exit code
    lines = done.stdout.splitlines()
    summary = {line.split(":")[0]: line for line in lines if not line.startswith(" ")}
    assert sorted(summary) == ["__init__.py", "bench.py", "cli.py", "descent.py", "model.py",
                               "quadform.py", "zf.py"]
    # _moments is one statement, and the only one that ran
    quadform = [line for line in lines if line.startswith("  quadform.py:")]
    total = int(summary["quadform.py"].split(" of ")[1].split()[0])
    assert summary["quadform.py"].startswith(f"quadform.py: {total - 1} of {total} ")
    assert len(quadform) == total - 1 and not any(" _moments: " in line for line in quadform)
    assert any(" _pick_beta: return math.ulp(0.0)" in line for line in quadform)
