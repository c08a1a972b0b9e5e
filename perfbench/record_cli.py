"""Record the expected exit codes and sha256 digests of the cli-large commands.

Run from the repository root at a commit whose CLI output is known good:

    python3 perfbench/record_cli.py

It overwrites perfbench/cli_expected.json. Stdout digests are recorded only
for commands whose output does not depend on the input relabelling.
"""

import json
import shutil
import sys

from run import SRC, WORK, load_library


def main() -> int:
    load_library()
    import workloads

    expected = {}
    work = WORK / "record"
    try:
        for sizes in (workloads.LARGE, workloads.TINY):
            wl = workloads.CliLarge(SRC, work, sizes)
            wl.setup(0)
            for op in wl.round_ops(0):
                argv, _, out = payload = wl.prepare(op)
                proc = wl.execute(payload, None)
                entry = {"exit": proc.returncode}
                if op.kind not in workloads.RELABELLED_STDOUT:
                    entry["stdout"] = workloads.sha256(proc.stdout)
                if out is not None:
                    entry["file"] = workloads.sha256(out.read_bytes())
                expected[" ".join(argv)] = entry
                print(" ".join(argv)[:80], entry, proc.stderr.decode()[-200:])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.CLI_EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                      encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
