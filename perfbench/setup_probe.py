"""Set-up time of one fresh interpreter, printed in seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG.json [...]

Times `import extlab`, loading and validating each config, `build_system`
and `validate_n`: everything `extlab run` does before its first draw.
"""

import sys
import time

t0 = time.perf_counter()

import extlab  # noqa: E402,F401
from extlab import cli  # noqa: E402

for path in sys.argv[1:]:
    cfg, raw = cli._load_config(path)
    cli._validate_config(cfg, path, raw)
    system = cli.build_system(cfg["system"])
    system.validate_n(int(cfg["n"]))

print(time.perf_counter() - t0)
