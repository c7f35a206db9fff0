"""Time one cold set-up: import cartanlab and build the named models.

    python3 setup_probe.py SRC_DIR MODEL [MODEL ...]

Runs in a fresh interpreter so that numpy and cartanlab are imported cold.
Prints one JSON line: the wall seconds taken, and the same seconds at the
nominal speed of speed.py's reference loop, timed right after.
"""

import json
import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, argv[1])
    import cartanlab.experiments  # noqa: F401  (imports every layer and numpy)
    from cartanlab.models import make_model

    for name in argv[2:]:
        make_model(name)
    wall = time.perf_counter() - t0

    import speed

    factor = speed.scale([speed.reference_chunk() for _ in range(20)])
    print(json.dumps({"wall_s": wall, "setup_s": wall * factor}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
