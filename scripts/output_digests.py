"""SHA-256 digests of everything the CLI writes for a set of configs.

    python3 scripts/output_digests.py [config.yaml ...] > digests.txt

For each config (default: every configs/*.yaml) the script runs `build`,
`dim`, `divide` and `export` into a fresh output directory, each command in
its own `python -m levelsat.cli` process with this checkout's src/ first on
the path. It prints one `sha256  path` line per written file and one
`sha256  config/command.stdout exit N` line per command. The output
directory's path is replaced by a fixed token in stdout and in file contents
before hashing, so two checkouts' digests compare with one `diff`.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("build", "dim", "divide", "export")
TOKEN = b"<OUT>"


def _sha(data: bytes, out_dir: Path) -> str:
    return hashlib.sha256(data.replace(str(out_dir).encode(), TOKEN)).hexdigest()


def _argv(command: str, config: Path, out_dir: Path) -> list[str]:
    argv = [command, "--out-dir", str(out_dir)]
    if command != "export":
        argv += ["--config", str(config)]
    if command != "build":
        chains = sorted(out_dir.glob("*.chain.json"))
        argv += ["--chain", str(chains[0] if chains else out_dir / "missing.chain.json")]
    return argv


def digest_config(config: Path, out_dir: Path) -> list[str]:
    """Run the four commands on one config into out_dir; its digest lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    lines = []
    for command in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "levelsat.cli", *_argv(command, config, out_dir)],
            capture_output=True, env=env, cwd=ROOT,
        )
        lines.append(
            f"{_sha(proc.stdout, out_dir)}  {config.stem}/{command}.stdout exit {proc.returncode}"
        )
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        lines.append(f"{_sha(path.read_bytes(), out_dir)}  {config.stem}/{path.relative_to(out_dir)}")
    return lines


def main(argv: list[str]) -> int:
    configs = [Path(a).resolve() for a in argv] or sorted((ROOT / "configs").glob("*.yaml"))
    with tempfile.TemporaryDirectory() as tmp:
        for i, config in enumerate(configs):
            out_dir = Path(tmp) / f"run{i}"
            out_dir.mkdir()
            for line in digest_config(config, out_dir):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
