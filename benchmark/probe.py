"""One set-up measurement: import ehcrn, load the config, produce a first result.

Usage: python3 probe.py SRC_DIR CONFIG simulate|analytic

Prints ``ready`` once the first result exists; the parent times the
process from its start to that line.  ``simulate`` runs one small
simulation (the first kernel call, which would include any JIT compile);
``analytic`` evaluates the closed-form operating point.
"""

import sys
from dataclasses import replace

sys.path.insert(0, sys.argv[1])

from ehcrn import analytic, configio, simulate  # noqa: E402

bundle = configio.load_config(sys.argv[2])
if sys.argv[3] == "simulate":
    simulate.run_simulation(bundle.scenario, replace(bundle.sim, slots=4096, replications=1))
else:
    analytic.operating_point(bundle.scenario)
print("ready", flush=True)
