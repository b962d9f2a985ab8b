"""Import-path guard: serving and experiments do not load networkx.

networkx costs every process about 14 MB of RSS and 0.2 s to import,
and only :func:`repro.graphs.validate.to_networkx` needs it. A fresh
interpreter that imports the package's entry points must not load it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def test_entry_points_do_not_import_networkx():
    code = (
        "import sys\n"
        "import repro, repro.server.net, repro.cluster, repro.experiments\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
