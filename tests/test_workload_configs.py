"""The config loader accepts every config the benchmark generates.

levelbench/workloads.py writes each workload's config from config_doc, with
the bundled configs' anchor at seed 0 and an element id at any other seed.
A config key check that refused one of them would fail every benchmark run,
so each is loaded here, with both kinds of anchor. The workloads file is
only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from levelsat.cli import load_config

WORKLOADS = Path(__file__).resolve().parent.parent / "levelbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("levelbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name while the class is made
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


W = _workloads()


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 3])
def test_load_config_accepts_the_workload_config(tmp_path, name, seed):
    w = W.WORKLOADS[name]
    anchors = [int(a) for a in W.load_expected()[name]["anchors"]]
    anchor = W.pick_anchor(seed, anchors)
    assert (anchor == W.ANCHOR_FIN1) if seed == 0 else type(anchor) is int
    path = tmp_path / f"{name}.yaml"
    W.write_config(w, anchor, path)
    cfg = load_config(path)
    assert (cfg.plugin, cfg.stages, cfg.window) == (w.plugin, w.stages, w.window)
    assert dict(cfg.sets[w.set_name].params) == {"y0": anchor}
    assert [d.name for d in cfg.dividing] == [d[0] for d in w.dividing]
