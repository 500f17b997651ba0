"""The allocator policy set when rscontrol is imported (README, "Allocator
policy"): on glibc, arrays under 32 MiB that a stage frees stay in the heap,
so the next stage reuses them without faulting their pages back in, unless
the environment sets one of glibc's own malloc tunables.

Each case runs in a fresh interpreter, since the policy holds for the whole
process once the package is imported.  The child holds sixteen 2 MiB arrays
at once (32 MiB) and then drops them, five rounds over, and prints the minor
page faults of each round.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the policy is set only on glibc")

SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD = """
import json, resource, sys
if sys.argv[1] == "import":
    import rscontrol
import numpy as np
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 18) for _ in range(16)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def _round_faults(mode: str, **settings) -> list:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
    env.update(settings, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", CHILD, mode], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_keeps_freed_arrays_for_reuse():
    first, *rest = _round_faults("import")   # round 1 maps 32 MiB: about 8 000 faults
    assert all(faults < 0.01 * first for faults in rest), (first, rest)


@pytest.mark.parametrize("mode, settings", [
    ("numpy", {}),   # without the package, glibc returns the arrays every round
    ("import", {"MALLOC_MMAP_THRESHOLD_": "131072"}),   # the user's own setting wins
], ids=["numpy-alone", "user-tunable"])
def test_controls_fault_every_round(mode, settings):
    faults = _round_faults(mode, **settings)
    assert all(count > 0.5 * faults[0] for count in faults), faults
