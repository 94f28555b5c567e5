"""Every callable the benchmark's traced run wraps still exists, so a
rename or a deletion in the package cannot break that run unseen.
``perfbench/tracing.py`` is only read: importing it has no side effects,
and nothing here installs its wrappers."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
# a child interpreter importing this checkout's package
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_path_resolves_in_the_package():
    # as the traced run does: a fresh interpreter imports circlewalk.cli
    # alone, then reads each hook's module out of sys.modules, so a module
    # that importing the cli leaves unregistered fails here
    probe = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('t', {str(TRACING)!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "import circlewalk.cli\n"
        "for name, module, path in [*tracing.TRACED, tracing.LEAF,"
        " tracing.SCAN_TASK]:\n"
        "    assert callable(tracing._resolve(module, path)), name\n"
        # the traced scan swaps in its own pool under this name
        "assert hasattr(sys.modules['circlewalk.cli'], 'ProcessPoolExecutor')\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=CLI_ENV,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_every_note_reads_a_real_call():
    # each span note reads its call's arguments and result, so a renamed
    # attribute such as MixingReport.tau must fail here, not in the run
    from circlewalk import DEFAULT_EPSILON, StructureTensor, build_kernel, make_modulus

    tracing = load_tracing()
    m = make_modulus(7)
    tensor = StructureTensor(m)
    calls = {
        "circles.scaled_table": (tensor,),
        "circles.validate_axioms": (tensor,),
        "walk.mixing_time": (build_kernel(m),),
        "bounds.bound_report": (m,),
        "cli.scan_row": ((7, DEFAULT_EPSILON),),
    }
    hooks = {name: (module, path)
             for name, module, path in [*tracing.TRACED, tracing.SCAN_TASK]}
    assert set(tracing._NOTES) <= set(calls)
    for name, note in tracing._NOTES.items():
        module, path = hooks[name]
        importlib.import_module(module)
        args = calls[name]
        attrs = note(args, tracing._resolve(module, path)(*args))
        # p = 7 is mixed after 4 steps
        assert attrs in ({"p": 7}, {"steps": 4}), (name, attrs)
