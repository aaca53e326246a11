"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports the flow and sweep APIs, builds the libraries every workload maps
to, then prints one JSON line.  The parent times the whole process from
launch to that line (``setup_s``); the line splits the in-process part into
imports and library builds.
"""

import json
import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import repro.api  # noqa: E402,F401
import repro.explore  # noqa: E402,F401
from repro.tech.default_libs import resolve_library  # noqa: E402
from repro.tech.target_libs import resolve_target_library  # noqa: E402

imported = time.perf_counter()
resolve_library("generic_035")
for target in ("nand2_basis", "aoi_rich"):
    resolve_target_library(target)
ready = time.perf_counter()
print(json.dumps({"import_s": imported - start, "library_s": ready - imported}), flush=True)
