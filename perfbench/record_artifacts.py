"""Record the default-seed sha256 of every artifact into artifacts.json.

    python3 perfbench/record_artifacts.py

Run from the root of a checkout after a traced run of every workload
(``run.py --workload NAME --trace 1``), which uses the default seed's
inputs. Traced runs count ``cli.artifacts_changed`` against this table, so
a change can show that its output stayed byte-identical or state which
artifacts moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import scenarios  # noqa: E402


def main() -> int:
    table = {}
    for name in sorted(scenarios.WORKLOADS):
        path = Path.cwd() / run.WORK_DIR / name / "result.json"
        if not path.is_file():
            print(f"error: no {path}; run the traced {name} workload first", file=sys.stderr)
            return 2
        result = json.loads(path.read_text())
        if result["seed"] != scenarios.DEFAULT_SEED or result["size"] != "full":
            print(f"error: {path} is not a default-seed full-size run", file=sys.stderr)
            return 2
        table.update(result["artifacts"])
    (HERE / "artifacts.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
