"""Cross-environment determinism of a (config, seed) pair.

A run must be bit-reproducible on any host.  Before the fix, traffic
generation drew per-cycle source sets from ``numpy`` when it was
importable and from the seeded ``random.Random`` stream otherwise, so
the same (config, seed) produced *different* runs depending on whether
numpy happened to be installed — and the campaign cache, keyed only by
the config hash, would happily serve one environment's results to the
other.  Generation is now backend-free: the pure-Python Bernoulli draws
are the only path.

``test_generation_identical_without_numpy`` fails against the old code
(in this environment numpy *is* installed, so the old fast path kicks in
and diverges from the numpy-blocked subprocess) and passes with the fix.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import repro.network.simulator as simulator_module
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator

_CONFIG_KWARGS = dict(
    radix=4,
    dimensions=2,
    warmup_cycles=50,
    measure_cycles=300,
    seed=99,
)
_RATE = 0.3


def _digest() -> str:
    config = SimulationConfig(**_CONFIG_KWARGS)
    config.traffic.injection_rate = _RATE
    stats = Simulator(config).run()
    payload = stats.to_dict(include_events=False, include_perf=False)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def test_same_seed_same_run():
    assert _digest() == _digest()


def test_simulator_does_not_import_numpy():
    """Generation must not depend on an optional backend."""
    source = inspect.getsource(simulator_module)
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "numpy" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "numpy"


def test_table_path_does_not_load_numpy():
    """The campaign and the experiments CLI — the path every table run
    takes — load no numpy in a fresh interpreter."""
    src_dir = Path(simulator_module.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src_dir), env.get("PYTHONPATH")])
    )
    script = (
        "import sys\n"
        "import repro.campaign\n"
        "import repro.experiments.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert result.stdout.strip() == "[]"


def test_simulator_import_does_not_load_networkx():
    """networkx is optional and costs more to import than the simulator:
    only the wait-graph cycle analysis may load it, on first use."""
    src_dir = Path(simulator_module.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src_dir), env.get("PYTHONPATH")])
    )
    script = (
        "import sys\n"
        "import repro.network.simulator\n"
        "import repro.analysis\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert result.stdout.strip() == "[]"


def test_generation_identical_without_numpy():
    """The digest must match in a subprocess where numpy cannot import."""
    script = f"""
import sys

class _Block:
    def find_module(self, name, path=None):
        if name == "numpy" or name.startswith("numpy."):
            return self
    def load_module(self, name):
        raise ImportError("numpy blocked for determinism test")

sys.meta_path.insert(0, _Block())

import hashlib, json
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator

config = SimulationConfig(**{_CONFIG_KWARGS!r})
config.traffic.injection_rate = {_RATE!r}
stats = Simulator(config).run()
payload = stats.to_dict(include_events=False, include_perf=False)
print(hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest())
"""
    src_dir = Path(simulator_module.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src_dir), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert result.stdout.strip() == _digest()


def _digest_under_hashseed(hashseed: str) -> str:
    """Run a saturated simulation in a subprocess with a fixed hash seed.

    The load is pushed past saturation so blocked headers actually park in
    the per-channel waiter collections — the code path whose iteration
    order used to depend on object hashes.
    """
    script = f"""
import hashlib, json
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator

config = SimulationConfig(**{_CONFIG_KWARGS!r})
config.traffic.injection_rate = 0.6
stats = Simulator(config).run()
payload = stats.to_dict(include_events=False, include_perf=False)
print(hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest())
"""
    src_dir = Path(simulator_module.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src_dir), env.get("PYTHONPATH")])
    )
    env["PYTHONHASHSEED"] = hashseed
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return result.stdout.strip()


def test_run_identical_across_hash_seeds():
    """Waiter wakeup order must not depend on PYTHONHASHSEED.

    Before waiter sets became insertion-ordered dicts, the event engine
    woke parked headers in ``set`` iteration order — i.e. object-hash
    order — so runs could diverge between interpreters with different
    hash randomization.  Two subprocesses with different explicit hash
    seeds must produce byte-identical stats.
    """
    assert _digest_under_hashseed("0") == _digest_under_hashseed("4242")
