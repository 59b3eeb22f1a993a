"""Fork-time preload: lazy imports must not move into the workers.

``import repro`` is lazy, so a process that forks workers loads the
package's deferred modules itself before the fork (see
``repro._import_all``); otherwise every worker would import them
on its first task.  Each check runs in a fresh interpreter and records
``sys.modules`` at the moment the pool's executor is created, which is
after warm-up and before any worker exists.
"""

import json
import os
import subprocess
import sys

import pytest

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: what ``import repro`` loaded when every subpackage was imported
#: eagerly; forked workers must still inherit all of it
EAGER_SET = (
    "repro.analysis",
    "repro.analysis.dataflow",
    "repro.analysis.intervals",
    "repro.fabric",
    "repro.fabric.cache",
    "repro.fabric.fingerprint",
    "repro.fabric.jobs",
    "repro.fabric.scheduler",
    "repro.fpir",
    "repro.fpir.ops",
    "repro.fpir.semantics",
    "repro.interp",
    "repro.interp.backend",
    "repro.interp.compiled",
    "repro.interp.evaluator",
    "repro.ir",
    "repro.ir.expr",
    "repro.ir.printer",
    "repro.ir.traversal",
    "repro.ir.types",
    "repro.lifting",
    "repro.lifting.canonicalize",
    "repro.lifting.lifter",
    "repro.lifting.rules",
    "repro.lifting.synthesized",
    "repro.machine",
    "repro.machine.llvm_baseline",
    "repro.machine.lowerer",
    "repro.machine.program",
    "repro.machine.simulator",
    "repro.observe",
    "repro.observe.metrics",
    "repro.observe.observation",
    "repro.observe.provenance",
    "repro.observe.report",
    "repro.observe.tracer",
    "repro.passes",
    "repro.passes.manager",
    "repro.pipeline",
    "repro.targets",
    "repro.targets.arm",
    "repro.targets.generic",
    "repro.targets.hvx",
    "repro.targets.isa",
    "repro.targets.powerpc",
    "repro.targets.riscv",
    "repro.targets.wasm",
    "repro.targets.x86",
    "repro.trs",
    "repro.trs.costs",
    "repro.trs.egraph",
    "repro.trs.index",
    "repro.trs.matcher",
    "repro.trs.pattern",
    "repro.trs.rewriter",
    "repro.trs.rule",
    "repro.trs.serialize",
    "repro.verify",
    "repro.verify.batch",
    "repro.verify.rule_verifier",
    "multiprocessing",
    "concurrent.futures.process",
)

#: records ``sys.modules`` when a WorkerPool creates its executor
_SNAPSHOT = (
    "import json, sys\n"
    "from repro.fabric import scheduler\n"
    "seen = []\n"
    "make_executor = scheduler.WorkerPool._make_executor\n"
    "def recording(self):\n"
    "    seen.append(sorted(sys.modules))\n"
    "    make_executor(self)\n"
    "scheduler.WorkerPool._make_executor = recording\n"
)

_DAEMON = _SNAPSHOT + (
    "import asyncio\n"
    "from repro.serve import ServeDaemon\n"
    "from repro.session import CompilerSession\n"
    "async def main():\n"
    "    daemon = ServeDaemon(session=CompilerSession(jobs=2),\n"
    "                         warm_targets=['arm-neon'])\n"
    "    await daemon.start(port=0)\n"
    "    await daemon.shutdown()\n"
    "asyncio.run(main())\n"
    "print(json.dumps(seen[0]))\n"
)

_SESSION = _SNAPSHOT + (
    "from repro.session import CompilerSession\n"
    "with CompilerSession(jobs=2) as session:\n"
    "    session.ensure_pool()\n"
    "print(json.dumps(seen[0]))\n"
)


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter; return its last stdout line."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        timeout=300,
    ).stdout
    return out.strip().splitlines()[-1]


@pytest.mark.parametrize(
    "code", [_DAEMON, _SESSION], ids=["daemon-start", "session-pool"]
)
def test_pool_forks_after_the_eager_set_is_loaded(code):
    loaded = set(json.loads(fresh(code)))
    assert sorted(set(EAGER_SET) - loaded) == []


def test_lowered_program_evaluates_with_only_the_pipeline_imported():
    # The simulator registers the TargetOp evaluation handler when it is
    # imported; the pipeline module alone must pull it in.
    out = fresh(
        "import sys\n"
        "from repro.pipeline import pitchfork_compile\n"
        "from repro.interp import evaluate\n"
        "from repro.targets import ARM\n"
        "from repro.workloads import by_name\n"
        "wl = by_name('sobel3x3')\n"
        "prog = pitchfork_compile(wl.expr, ARM, var_bounds=wl.var_bounds)\n"
        "env = wl.random_env(lanes=16, seed=3)\n"
        "same = evaluate(prog.lowered, env) == evaluate(wl.expr, env)\n"
        "print(same, 'repro.machine.llvm_baseline' in sys.modules)\n"
    )
    assert out == "True False"
