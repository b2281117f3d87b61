"""No module is first imported inside a timed call.

A module imported for the first time inside ``Session.run()`` or
``run_campaigns()`` is loaded, and without a bytecode cache compiled,
on the clock of the call that needed it, so a cold CLI run and every
benchmark session pay for it there. Each run below starts a fresh
interpreter, sets up as a caller does (imports and sessions built
outside the call), and lists the ``repro`` modules that the call
itself imported: a checkpointed p01 session, a resume of it, and a
2-kernel interleaved sweep.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_RUN = r"""
import json, sys
from pathlib import Path
from repro.api import EngineOptions, SearchConfig, Session, Target
from repro.engine.sweep import run_campaigns

mode, run_dir = sys.argv[1], Path(sys.argv[2])
config = SearchConfig(seed=3, synthesis_proposals=80,
                      optimization_proposals=80, synthesis_chains=2,
                      optimization_chains=2, optimization_restarts=2,
                      ell=12, testcase_count=8)
sweep = mode == "sweep"
kernels = ("p01", "p03") if sweep else ("p01",)
sessions = [Session(Target.from_suite(kernel), config=config,
                    engine=EngineOptions(
                        run_dir=run_dir / kernel if sweep else run_dir,
                        resume=mode == "resume", interleave=sweep))
            for kernel in kernels]
campaigns = [session.campaign() for session in sessions] if sweep else []
before = set(sys.modules)
if sweep:
    for session, campaign, outcome in zip(sessions, campaigns,
                                          run_campaigns(campaigns)):
        session.wrap(campaign, outcome)
else:
    sessions[0].run()
print(json.dumps(sorted(name for name in set(sys.modules) - before
                        if name.split(".")[0] == "repro")))
"""


def _imported_during(mode: str, run_dir: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _RUN, mode, str(run_dir)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_session_resume_and_sweep_import_nothing_new(tmp_path):
    assert _imported_during("fresh", tmp_path / "session") == []
    assert _imported_during("resume", tmp_path / "session") == []
    assert _imported_during("sweep", tmp_path / "sweep") == []
