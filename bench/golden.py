"""Write ``cli_cases/golden.json``: the expected exit code and stdout digest of
every (config, command) case of the cli-batch workload.

    python3 bench/golden.py

The CLI promises byte-identical reports, so the goldens only change when a
change to the CLI's output is intended; rewriting them to make a failing
benchmark pass would hide exactly the regression the workload exists to
catch.  Float-mode reports print binary64 values and are tied to the
platform's libm.  ``mra-demo`` on the float config exits 2 by design (span
solving needs exact coefficients).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import CLI_CASES, run_cli_subprocess, stdout_digest  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = ("exact.json", "float.json")
COMMANDS = ("stabilizer", "genericity", "orbit", "frame-bound", "frame-check",
            "oracle-check", "mra-demo")


def main() -> int:
    cases = []
    for config in CONFIGS:
        for command in COMMANDS:
            code, out = run_cli_subprocess(SRC, config, command)
            cases.append({"config": config, "command": command, "exit": code,
                          "stdout_sha256": stdout_digest(out)})
            print(f"{config:<12} {command:<13} exit {code}")
    (CLI_CASES / "golden.json").write_text(
        json.dumps({"cases": cases}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
