"""The seeded test generators draw the same data under every hash seed.

Iterating a set follows string hashes, which change with PYTHONHASHSEED,
so a generator that draws random numbers while iterating a set gives each
process different data, and a failing seed does not reproduce.  The
generators run here in two child interpreters with different hash seeds,
and their data must have the same digest.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import hashlib
import random

from tests.conftest import (
    random_circuit_pattern, random_flow, random_flowful_pattern, random_labelled_graph,
    random_pattern)


def describe(pattern, flow=None):
    g = pattern.graph
    p = None if flow is None else sorted((v, sorted(s)) for v, s in flow.p.items())
    return repr((sorted(g.vertices), sorted(g.edges), sorted(g.inputs), sorted(g.outputs),
                 sorted(g.labels.items()), sorted(pattern.angles.items()), p))


rng = random.Random(52)
parts = [describe(*random_flowful_pattern(rng, max_vertices=8)) for _ in range(40)]
parts += [describe(random_circuit_pattern(rng, rng.randrange(1, 5), rng.randrange(2, 16)))
          for _ in range(20)]
for _ in range(40):
    g = random_labelled_graph(rng, rng.randrange(2, 16))
    parts.append(describe(random_pattern(rng, g), random_flow(rng, g)))
print(hashlib.sha256("\\n".join(parts).encode()).hexdigest())
"""


def digest_under(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_generators_ignore_hash_seed():
    first = digest_under(0)
    assert len(first) == 64
    assert digest_under(1) == first
