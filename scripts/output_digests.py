"""SHA-256 digests of everything the CLI writes for a set of configs.

    python3 scripts/output_digests.py [--workloads] [config.yaml ...] > digests.txt

For each config (default: every configs/*.yaml, then every
tests/data/*.yaml, which adds the per-stage search of sets with a
quantifier and a `divide` whose psi is born late) the script runs `build`,
`dim`, `divide` and `export` into a fresh output directory, each command in
its own `python -m levelsat.cli` process with this checkout's src/ first on
the path. --workloads adds the benchmark's three workloads at seeds 0, 3 and
8: their configs are generated as levelbench/run.py generates them, from
levelbench/workloads.py and expected.json, and `divide` gets the workload
seed as `--seed`, as in the benchmark.

It prints one `sha256  path` line per written file and one
`sha256  config/command.stdout exit N` line per command. The output
directory's path is replaced by a fixed token in stdout and in file contents
before hashing, so two checkouts' digests compare with one `diff`.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("build", "dim", "divide", "export")
TOKEN = b"<OUT>"
WORKLOAD_SEEDS = (0, 3, 8)


def _sha(data: bytes, out_dir: Path) -> str:
    return hashlib.sha256(data.replace(str(out_dir).encode(), TOKEN)).hexdigest()


def _argv(command: str, config: Path, out_dir: Path, seed: Optional[int]) -> list[str]:
    argv = [command, "--out-dir", str(out_dir)]
    if command != "export":
        argv += ["--config", str(config)]
    if command != "build":
        chains = sorted(out_dir.glob("*.chain.json"))
        argv += ["--chain", str(chains[0] if chains else out_dir / "missing.chain.json")]
    if command == "divide" and seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def workload_configs(config_dir: Path) -> list[tuple[Path, int]]:
    """The benchmark workloads' configs at WORKLOAD_SEEDS, written into
    config_dir as `<workload>.seed<seed>.yaml`, each with its seed."""
    sys.path.insert(0, str(ROOT / "levelbench"))
    from workloads import WORKLOADS, load_expected, pick_anchor, write_config

    expected = load_expected()
    configs = []
    for name, w in WORKLOADS.items():
        for seed in WORKLOAD_SEEDS:
            anchor = pick_anchor(seed, [int(a) for a in expected[name]["anchors"]])
            path = config_dir / f"{name}.seed{seed}.yaml"
            write_config(w, anchor, path)
            configs.append((path, seed))
    return configs


def digest_config(config: Path, out_dir: Path, seed: Optional[int] = None) -> list[str]:
    """Run the four commands on one config into out_dir, passing seed to
    `divide` if one is given; its digest lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    lines = []
    for command in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "levelsat.cli", *_argv(command, config, out_dir, seed)],
            capture_output=True, env=env, cwd=ROOT,
        )
        lines.append(
            f"{_sha(proc.stdout, out_dir)}  {config.stem}/{command}.stdout exit {proc.returncode}"
        )
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        lines.append(f"{_sha(path.read_bytes(), out_dir)}  {config.stem}/{path.relative_to(out_dir)}")
    return lines


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="*", type=Path)
    ap.add_argument("--workloads", action="store_true",
                    help="also digest the benchmark workloads at seeds 0, 3 and 8")
    args = ap.parse_args(argv)
    configs = [c.resolve() for c in args.configs] or [
        c for d in ("configs", "tests/data") for c in sorted((ROOT / d).glob("*.yaml"))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        runs: list[tuple[Path, Optional[int]]] = [(c, None) for c in configs]
        if args.workloads:
            runs += workload_configs(Path(tmp))
        for i, (config, seed) in enumerate(runs):
            out_dir = Path(tmp) / f"run{i}"
            out_dir.mkdir()
            for line in digest_config(config, out_dir, seed):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
