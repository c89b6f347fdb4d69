"""One cold start of saucer in a fresh interpreter; prints its timings as JSON.

Run as: python3 [-X importtime] perfbench/setup_child.py REPO_ROOT
Times `import saucer` and the first-use symbolic caches (workloads.warm_caches),
and says whether sympy was already imported when `import saucer` returned.
"""
import json
import sys
import time
from pathlib import Path

root = Path(sys.argv[1])
sys.path.insert(0, str(root / "src"))
t0 = time.perf_counter()
import saucer  # noqa: E402,F401
t1 = time.perf_counter()
sympy_in_import = "sympy" in sys.modules

from workloads import warm_caches  # noqa: E402  (after the timed import)

t2 = time.perf_counter()
warm_caches()
t3 = time.perf_counter()
print(json.dumps({"import_saucer_s": t1 - t0, "caches_s": t3 - t2,
                  "sympy_in_import": sympy_in_import}))
